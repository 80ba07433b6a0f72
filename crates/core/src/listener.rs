//! The unified observation surface: one listener trait for every engine.
//!
//! The repository grew three overlapping ways to watch a run: observer
//! recorders, the stop-deciding [`ConvergenceCheck`] predicates, and the
//! sharded engine's ad-hoc cumulative phase timers. [`RoundListener`]
//! collapses them into a single trait with **typed events**:
//!
//! * [`RoundEvent`] — fired once per executed quantum with the post-round
//!   graph `G_{t+1}` and the round's [`RoundStats`]. The listener's return
//!   value ([`RoundControl`]) is how a run decides to stop, which is what
//!   makes convergence checking *a listener* rather than a parallel
//!   mechanism.
//! * [`PhaseEvent`] — fired by engines that decompose a round into timed
//!   phases (today the sharded engine's propose/route/apply), carrying the
//!   phase's wall-clock nanoseconds. Wall-clock only: these feed throughput
//!   tables and live-service metrics, never reproducible measurement rows.
//!
//! [`ConvergenceCheck`] survives as the *predicate vocabulary* and rides
//! the seam through the [`StopWhen`] adapter; the round recorder in
//! [`crate::recorder`] is itself a listener. Nothing outside this
//! module observes a run any other way — the engines route through
//! [`crate::seam::run_engine_listened`] exclusively. Multiple listeners
//! compose with [`Chain`] (two, statically) or [`ListenerSet`] (N, boxed —
//! the plugin fan-out `gossip-serve` drives).
//!
//! The no-listener path costs nothing: `run_until` wraps the check in a
//! zero-size adapter and the default
//! [`RoundEngine::step_listened`](crate::seam::RoundEngine::step_listened)
//! forwards straight to `step_quantum`.

use crate::convergence::ConvergenceCheck;
use crate::process::{GossipGraph, RoundStats};

/// The phases a round decomposes into (the sharded engine's pipeline;
/// engines without a phase breakdown simply never emit [`PhaseEvent`]s).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoundPhase {
    /// Application of due [`MembershipPlan`](crate::MembershipPlan)
    /// join/leave events, before the propose phase (emitted only on
    /// rounds where at least one event fired).
    Membership,
    /// Rule evaluation against the immutable round-start graph.
    Propose,
    /// Mailbox routing of proposals to owner shards.
    Route,
    /// Encoding routed mailboxes into wire frames (transport engines
    /// only; in-process engines never serialize).
    Serialize,
    /// Writing frames to transport links and fanning them out to their
    /// destinations (the supervisor's send/forward side).
    Flush,
    /// Receiving frames, reassembling mailboxes, and waiting on round
    /// barriers (the transport's receive side, including retransmits).
    Drain,
    /// Merging routed proposals into the graph.
    Apply,
}

/// One executed quantum, observed after its writes landed: `graph` is
/// `G_{t+1}` and `round` is the 1-based index of the quantum just run.
#[derive(Debug)]
pub struct RoundEvent<'a, G> {
    /// Quanta executed so far (1-based: the first event has `round == 1`).
    pub round: u64,
    /// The post-round graph.
    pub graph: &'a G,
    /// What the round did.
    pub stats: RoundStats,
}

/// One timed phase of a round. Wall-clock data — never feed it into
/// reproducible measurement rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseEvent {
    /// The round the phase belongs to (same numbering as [`RoundEvent`]).
    pub round: u64,
    /// Which phase.
    pub phase: RoundPhase,
    /// Wall time the phase took, in nanoseconds.
    pub nanos: u64,
}

/// A listener's verdict after a round: keep going or stop the run.
/// Stopping is what "converged" means to the run loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoundControl {
    /// Keep stepping.
    #[default]
    Continue,
    /// Stop: the listener's target is reached.
    Stop,
}

impl RoundControl {
    /// `Stop` if either side says stop.
    #[inline]
    pub fn or(self, other: RoundControl) -> RoundControl {
        if self == RoundControl::Stop || other == RoundControl::Stop {
            RoundControl::Stop
        } else {
            RoundControl::Continue
        }
    }
}

/// Receives a run's typed events; every method defaults to "do nothing,
/// keep going", so a listener implements only what it cares about.
///
/// Engines deliver [`PhaseEvent`]s from inside their step (via
/// `RoundEngine::step_listened`); the shared run loop delivers
/// [`RoundListener::on_start`] and [`RoundListener::on_round`].
pub trait RoundListener<G: GossipGraph> {
    /// Called once with the start graph before any quantum executes.
    /// Returning [`RoundControl::Stop`] means the target already holds.
    fn on_start(&mut self, graph: &G) -> RoundControl {
        let _ = graph;
        RoundControl::Continue
    }

    /// Called after every executed quantum with the post-round graph.
    fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
        let _ = ev;
        RoundControl::Continue
    }

    /// Called after each timed phase, for engines that emit them.
    fn on_phase(&mut self, ev: &PhaseEvent) {
        let _ = ev;
    }
}

// Forwarding impl so `&mut listener` (including `&mut dyn RoundListener`)
// slots anywhere a listener is expected — the run loop leans on this to
// hand one listener both to the engine's phase hook and to itself.
impl<G: GossipGraph, L: RoundListener<G> + ?Sized> RoundListener<G> for &mut L {
    #[inline]
    fn on_start(&mut self, graph: &G) -> RoundControl {
        (**self).on_start(graph)
    }
    #[inline]
    fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
        (**self).on_round(ev)
    }
    #[inline]
    fn on_phase(&mut self, ev: &PhaseEvent) {
        (**self).on_phase(ev)
    }
}

/// Adapter: a [`ConvergenceCheck`] as a stop-deciding listener. This is how
/// the pre-listener API (`run_until(check, budget)`) is expressed on the
/// unified surface — the check keeps compiling untouched.
#[derive(Debug)]
pub struct StopWhen<'a, C: ?Sized>(pub &'a mut C);

impl<G: GossipGraph, C: ConvergenceCheck<G> + ?Sized> RoundListener<G> for StopWhen<'_, C> {
    #[inline]
    fn on_start(&mut self, graph: &G) -> RoundControl {
        if self.0.is_converged(graph) {
            RoundControl::Stop
        } else {
            RoundControl::Continue
        }
    }
    #[inline]
    fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
        if self.0.is_converged(ev.graph) {
            RoundControl::Stop
        } else {
            RoundControl::Continue
        }
    }
}

/// Two listeners run in order (`A` first). Stop verdicts OR together; both
/// sides always see every event, so a Stop from `A` cannot hide the round
/// from `B`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Chain<A, B>(pub A, pub B);

impl<G: GossipGraph, A: RoundListener<G>, B: RoundListener<G>> RoundListener<G> for Chain<A, B> {
    #[inline]
    fn on_start(&mut self, graph: &G) -> RoundControl {
        self.0.on_start(graph).or(self.1.on_start(graph))
    }
    #[inline]
    fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
        self.0.on_round(ev).or(self.1.on_round(ev))
    }
    #[inline]
    fn on_phase(&mut self, ev: &PhaseEvent) {
        self.0.on_phase(ev);
        self.1.on_phase(ev);
    }
}

/// A dynamic 1:N fan-out of boxed listeners — the plugin seam. Every
/// registered listener sees every event in registration order; the run
/// stops when any listener says stop.
pub struct ListenerSet<G: GossipGraph> {
    items: Vec<Box<dyn RoundListener<G> + Send>>,
}

impl<G: GossipGraph> Default for ListenerSet<G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: GossipGraph> ListenerSet<G> {
    /// An empty set.
    pub fn new() -> Self {
        ListenerSet { items: Vec::new() }
    }

    /// Registers a listener (fluent).
    pub fn with(mut self, l: impl RoundListener<G> + Send + 'static) -> Self {
        self.push(l);
        self
    }

    /// Registers a listener.
    pub fn push(&mut self, l: impl RoundListener<G> + Send + 'static) {
        self.items.push(Box::new(l));
    }

    /// Number of registered listeners.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no listeners are registered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<G: GossipGraph> std::fmt::Debug for ListenerSet<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListenerSet")
            .field("len", &self.items.len())
            .finish()
    }
}

impl<G: GossipGraph> RoundListener<G> for ListenerSet<G> {
    fn on_start(&mut self, graph: &G) -> RoundControl {
        let mut ctl = RoundControl::Continue;
        for l in &mut self.items {
            ctl = ctl.or(l.on_start(graph));
        }
        ctl
    }
    fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
        let mut ctl = RoundControl::Continue;
        for l in &mut self.items {
            ctl = ctl.or(l.on_round(ev));
        }
        ctl
    }
    fn on_phase(&mut self, ev: &PhaseEvent) {
        for l in &mut self.items {
            l.on_phase(ev);
        }
    }
}

/// Cumulative wall time per round phase, in nanoseconds — the totals the
/// sharded engine's phase timers report. Wall-clock only; never enters
/// reproducible measurement rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Membership event application (zero on churn-free runs).
    pub membership: u64,
    /// Propose phase (rule evaluation + buffer writes).
    pub propose: u64,
    /// Mailbox routing (canonicalize, owner lookup, append).
    pub route: u64,
    /// Frame encoding (zero for in-process engines).
    pub serialize: u64,
    /// Frame send/forward fan-out (zero for in-process engines).
    pub flush: u64,
    /// Frame receive + reassembly + barrier waits (zero for in-process
    /// engines).
    pub drain: u64,
    /// Shard-parallel apply (sort + dedup + merge per segment).
    pub apply: u64,
}

impl PhaseNanos {
    /// Total across phases.
    pub fn total(&self) -> u64 {
        self.membership
            + self.propose
            + self.route
            + self.serialize
            + self.flush
            + self.drain
            + self.apply
    }

    /// Folds one phase event into the totals.
    #[inline]
    pub fn absorb(&mut self, ev: &PhaseEvent) {
        match ev.phase {
            RoundPhase::Membership => self.membership += ev.nanos,
            RoundPhase::Propose => self.propose += ev.nanos,
            RoundPhase::Route => self.route += ev.nanos,
            RoundPhase::Serialize => self.serialize += ev.nanos,
            RoundPhase::Flush => self.flush += ev.nanos,
            RoundPhase::Drain => self.drain += ev.nanos,
            RoundPhase::Apply => self.apply += ev.nanos,
        }
    }
}

/// Listener that accumulates [`PhaseEvent`]s into cumulative
/// [`PhaseNanos`] — the unified-API replacement for the sharded engine's
/// ad-hoc phase timers (and the implementation behind them).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseAccumulator {
    totals: PhaseNanos,
}

impl PhaseAccumulator {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative totals so far.
    pub fn totals(&self) -> PhaseNanos {
        self.totals
    }

    /// Zeroes the totals (e.g. after warm-up rounds).
    pub fn reset(&mut self) {
        self.totals = PhaseNanos::default();
    }
}

impl<G: GossipGraph> RoundListener<G> for PhaseAccumulator {
    #[inline]
    fn on_phase(&mut self, ev: &PhaseEvent) {
        self.totals.absorb(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::ComponentwiseComplete;
    use crate::engine::Engine;
    use crate::recorder::RoundRecorder;
    use crate::rules::Push;
    use crate::seam::run_engine_listened;
    use gossip_graph::generators;

    #[test]
    fn stop_when_adapter_matches_run_until() {
        let g = generators::path(16);
        let mut a = Engine::new(g.clone(), Push, 9);
        let mut b = Engine::new(g, Push, 9);
        let mut ca = ComponentwiseComplete::for_graph(a.graph());
        let mut cb = ComponentwiseComplete::for_graph(b.graph());
        let oa = a.run_until(&mut ca, 1_000_000);
        let ob = run_engine_listened(&mut b, &mut StopWhen(&mut cb), 1_000_000);
        assert_eq!(oa, ob);
    }

    #[test]
    fn recorders_are_listeners() {
        let g = generators::path(16);
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut rec = RoundRecorder::new();
        let mut engine = Engine::new(g, Push, 42);
        let out = run_engine_listened(
            &mut engine,
            &mut Chain(&mut rec, StopWhen(&mut check)),
            100_000,
        );
        assert!(out.converged);
        assert_eq!(rec.rows().len() as u64, out.rounds);
        assert_eq!(rec.rows()[0].round, 1);
    }

    #[test]
    fn chain_sees_events_on_both_sides_and_ors_stops() {
        #[derive(Default)]
        struct CountRounds(u64);
        impl<G: GossipGraph> RoundListener<G> for CountRounds {
            fn on_round(&mut self, _ev: &RoundEvent<'_, G>) -> RoundControl {
                self.0 += 1;
                RoundControl::Continue
            }
        }
        struct StopAt(u64);
        impl<G: GossipGraph> RoundListener<G> for StopAt {
            fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
                if ev.round >= self.0 {
                    RoundControl::Stop
                } else {
                    RoundControl::Continue
                }
            }
        }
        let g = generators::cycle(24);
        let mut engine = Engine::new(g, Push, 1);
        let mut chain = Chain(StopAt(4), CountRounds::default());
        let out = run_engine_listened(&mut engine, &mut chain, 1_000);
        assert!(out.converged, "StopAt verdict must surface as converged");
        assert_eq!(out.rounds, 4);
        // The stopping listener did not shadow the counter.
        assert_eq!(chain.1 .0, 4);
    }

    #[test]
    fn listener_set_fans_out_and_stops_on_any() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        struct CountInto(Arc<AtomicU64>);
        impl<G: GossipGraph> RoundListener<G> for CountInto {
            fn on_round(&mut self, _ev: &RoundEvent<'_, G>) -> RoundControl {
                self.0.fetch_add(1, Ordering::Relaxed);
                RoundControl::Continue
            }
        }
        struct StopAt(u64);
        impl<G: GossipGraph> RoundListener<G> for StopAt {
            fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
                if ev.round >= self.0 {
                    RoundControl::Stop
                } else {
                    RoundControl::Continue
                }
            }
        }
        let seen = Arc::new(AtomicU64::new(0));
        let mut set = ListenerSet::new()
            .with(CountInto(seen.clone()))
            .with(StopAt(3));
        assert_eq!(set.len(), 2);
        let g = generators::cycle(24);
        let mut engine = Engine::new(g, Push, 1);
        let out = run_engine_listened(&mut engine, &mut set, 1_000);
        assert_eq!(out.rounds, 3);
        assert!(out.converged);
        assert_eq!(seen.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn phase_accumulator_absorbs_events() {
        let mut acc = PhaseAccumulator::new();
        for (phase, nanos) in [
            (RoundPhase::Propose, 5),
            (RoundPhase::Route, 7),
            (RoundPhase::Apply, 11),
            (RoundPhase::Propose, 13),
            (RoundPhase::Serialize, 2),
            (RoundPhase::Flush, 3),
            (RoundPhase::Drain, 4),
        ] {
            RoundListener::<gossip_graph::ArenaGraph>::on_phase(
                &mut acc,
                &PhaseEvent {
                    round: 1,
                    phase,
                    nanos,
                },
            );
        }
        assert_eq!(
            acc.totals(),
            PhaseNanos {
                membership: 0,
                propose: 18,
                route: 7,
                serialize: 2,
                flush: 3,
                drain: 4,
                apply: 11
            }
        );
        assert_eq!(acc.totals().total(), 45);
        acc.reset();
        assert_eq!(acc.totals(), PhaseNanos::default());
    }
}
