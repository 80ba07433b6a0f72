//! The resident service: one worker thread advancing an engine, any number
//! of reader threads querying published snapshots.
//!
//! ## The loop
//!
//! [`GossipService::spawn`] takes ownership of any [`RoundEngine`] — the
//! sequential engine, the async engine, the sharded engine, a
//! cross-process driver — and drives it on a dedicated thread through the
//! same [`run_engine_listened`] loop every batch experiment uses. Serving adds exactly one listener to that loop: a
//! snapshot publisher that, every `snapshot_every` rounds, clones the graph
//! and swaps it into an `RwLock<Arc<Snapshot>>`. Because the engine's
//! trajectory is a pure function of `(graph, rule, seed)` and the publisher
//! only *reads* the graph between rounds, a served run is bit-identical to
//! the same configuration run in batch — the determinism suite pins this.
//!
//! ## Readers
//!
//! [`ServiceHandle`] is `Clone + Send`; any thread holding one can grab the
//! current snapshot (`Arc` clone under a read lock — no copying), then
//! query it for as long as it likes while the engine races ahead. Writers
//! never block readers for longer than one pointer swap.

use crate::snapshot::Snapshot;
use gossip_core::listener::{ListenerSet, RoundControl, RoundEvent, RoundListener};
use gossip_core::seam::{run_engine_listened, RoundEngine};
use gossip_core::{Chain, GossipGraph, RunOutcome};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::{self, JoinHandle};

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Publish a snapshot every this-many rounds (clamped to ≥ 1). The
    /// initial graph is always published as epoch 0, and the final graph
    /// is always published when the run ends.
    pub snapshot_every: u64,
    /// Round budget for the run; `u64::MAX` serves until
    /// [`GossipService::stop`] or a listener votes stop.
    pub budget: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            snapshot_every: 1,
            budget: u64::MAX,
        }
    }
}

/// Why and where the serve loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Total quanta the engine had executed when the loop ended.
    pub rounds: u64,
    /// `true` if a listener (convergence check, stop request) ended the
    /// run; `false` if the budget ran out.
    pub listener_stopped: bool,
    /// Snapshots published over the service's lifetime (≥ 2: initial +
    /// final, unless the run never started).
    pub epochs: u64,
}

struct Shared<G> {
    snap: RwLock<Arc<Snapshot<G>>>,
    epoch: AtomicU64,
    rounds: AtomicU64,
    stop: AtomicBool,
}

/// Cloneable, thread-safe read handle onto a running (or stopped) service.
pub struct ServiceHandle<G> {
    shared: Arc<Shared<G>>,
}

impl<G> Clone for ServiceHandle<G> {
    fn clone(&self) -> Self {
        ServiceHandle {
            shared: self.shared.clone(),
        }
    }
}

impl<G> ServiceHandle<G> {
    /// The most recently published snapshot. One `Arc` clone under a read
    /// lock; the returned snapshot stays valid indefinitely.
    pub fn snapshot(&self) -> Arc<Snapshot<G>> {
        // Poison cannot tear it: the only write is one whole-`Arc` swap.
        let snap = self.shared.snap.read();
        snap.unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Epoch of the most recently published snapshot (lock-free).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Rounds the engine has executed so far (lock-free; may be ahead of
    /// the published snapshot's round).
    pub fn rounds(&self) -> u64 {
        self.shared.rounds.load(Ordering::Acquire)
    }
}

/// The snapshot publisher the service rides on the listener seam.
struct Publisher<G: GossipGraph> {
    shared: Arc<Shared<G>>,
    every: u64,
    next_epoch: u64,
}

impl<G: GossipGraph> Publisher<G> {
    fn publish(&mut self, round: u64, graph: &G) {
        let snap = Arc::new(Snapshot {
            epoch: self.next_epoch,
            round,
            graph: graph.clone(),
        });
        // As in `ServiceHandle::snapshot`: poison cannot tear the slot.
        let slot = self.shared.snap.write();
        *slot.unwrap_or_else(PoisonError::into_inner) = snap;
        self.shared.epoch.store(self.next_epoch, Ordering::Release);
        self.next_epoch += 1;
    }
}

impl<G: GossipGraph> RoundListener<G> for Publisher<G> {
    fn on_start(&mut self, _graph: &G) -> RoundControl {
        if self.shared.stop.load(Ordering::Acquire) {
            RoundControl::Stop
        } else {
            RoundControl::Continue
        }
    }

    fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
        self.shared.rounds.store(ev.round, Ordering::Release);
        if ev.round.is_multiple_of(self.every) {
            self.publish(ev.round, ev.graph);
        }
        if self.shared.stop.load(Ordering::Acquire) {
            RoundControl::Stop
        } else {
            RoundControl::Continue
        }
    }
}

/// The serve loop, boxed so that whichever side runs it can take it.
type Run<E> = Box<dyn FnOnce() -> (E, RunOutcome) + Send>;

fn take<T>(slot: &Mutex<Option<T>>) -> Option<T> {
    // Poison cannot tear it: the only write is one `Option::take`.
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// A live gossip engine behind a query surface. See the [module
/// docs](self) for the architecture.
pub struct GossipService<E: RoundEngine> {
    shared: Arc<Shared<E::Graph>>,
    /// The serve loop until the worker thread takes it — or until `join`
    /// does, if the OS refused the thread.
    run: Arc<Mutex<Option<Run<E>>>>,
    worker: Option<JoinHandle<Option<(E, RunOutcome)>>>,
}

impl<E> GossipService<E>
where
    E: RoundEngine + Send + 'static,
    E::Graph: 'static,
{
    /// Spawns the worker with no extra listeners.
    pub fn spawn(engine: E, cfg: ServeConfig) -> Self {
        Self::spawn_with(engine, cfg, ListenerSet::new())
    }

    /// Spawns the worker with caller-supplied listeners (metrics counters,
    /// round recorders, convergence stoppers — anything
    /// implementing [`RoundListener`]) riding the same loop. A listener
    /// voting stop ends the serve run exactly as it would a batch run. If
    /// the OS cannot start the worker thread, the rounds run inside
    /// [`GossipService::join`] (or `stop`) instead, and readers see epoch
    /// 0 until then.
    pub fn spawn_with(engine: E, cfg: ServeConfig, listeners: ListenerSet<E::Graph>) -> Self {
        let mut svc = Self::unstarted(engine, cfg, listeners);
        let run = svc.run.clone();
        svc.worker = thread::Builder::new()
            .name("gossip-serve".into())
            .spawn(move || take(&run).map(|run| run()))
            .ok();
        svc
    }

    /// The service with no worker thread: its rounds wait for `join`.
    fn unstarted(engine: E, cfg: ServeConfig, listeners: ListenerSet<E::Graph>) -> Self {
        // Publish the initial graph as epoch 0 before the thread exists,
        // so a handle can never observe an empty service.
        let initial = Arc::new(Snapshot {
            epoch: 0,
            round: engine.quanta(),
            graph: engine.graph().clone(),
        });
        let shared = Arc::new(Shared {
            snap: RwLock::new(initial),
            epoch: AtomicU64::new(0),
            rounds: AtomicU64::new(engine.quanta()),
            stop: AtomicBool::new(false),
        });
        let mut publisher = Publisher {
            shared: shared.clone(),
            every: cfg.snapshot_every.max(1),
            next_epoch: 1,
        };
        let budget = cfg.budget;
        let mut engine = engine;
        let mut listeners = listeners;
        let run: Run<E> = Box::new(move || {
            let out = run_engine_listened(
                &mut engine,
                &mut Chain(&mut publisher, &mut listeners),
                budget,
            );
            // Final state is always visible, whatever the cadence.
            publisher.publish(engine.quanta(), engine.graph());
            (engine, out)
        });
        GossipService {
            shared,
            run: Arc::new(Mutex::new(Some(run))),
            worker: None,
        }
    }

    /// A read handle; clone freely across threads.
    pub fn handle(&self) -> ServiceHandle<E::Graph> {
        ServiceHandle {
            shared: self.shared.clone(),
        }
    }

    /// Whether the worker has finished (budget exhausted or a listener
    /// stop).
    pub fn is_finished(&self) -> bool {
        self.worker.as_ref().is_some_and(JoinHandle::is_finished)
    }

    /// Requests a stop at the next round boundary and joins, returning the
    /// engine (for trajectory comparison against batch runs) and the
    /// outcome.
    pub fn stop(self) -> (E, ServeOutcome) {
        self.shared.stop.store(true, Ordering::Release);
        self.join()
    }

    /// Joins without requesting a stop — use when the budget or a
    /// convergence listener bounds the run.
    pub fn join(self) -> (E, ServeOutcome) {
        let ran = match self.worker {
            // Re-raises the engine's or a listener's panic, not a new one.
            Some(worker) => worker.join().unwrap_or_else(|p| resume_unwind(p)),
            None => take(&self.run).map(|run| run()),
        };
        // The loop is taken once: by the thread if it started, else here.
        let (engine, out) = ran.expect("the serve loop runs exactly once");
        let outcome = ServeOutcome {
            rounds: out.rounds,
            listener_stopped: out.converged,
            epochs: self.shared.epoch.load(Ordering::Acquire) + 1,
        };
        (engine, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::{EngineBuilder, Push};
    use gossip_graph::generators;

    #[test]
    fn serves_snapshots_while_running_and_returns_engine() {
        let g = generators::star(64);
        let engine = EngineBuilder::new(g, Push, 21).build();
        let svc = GossipService::spawn(
            engine,
            ServeConfig {
                snapshot_every: 1,
                budget: 50,
            },
        );
        let h = svc.handle();
        let early = h.snapshot();
        let (engine, out) = svc.join();
        assert_eq!(out.rounds, 50);
        assert!(!out.listener_stopped);
        // initial + one per round + final
        assert_eq!(out.epochs, 52);
        let last = h.snapshot();
        assert_eq!(last.round, 50);
        assert_eq!(last.edge_count(), engine.graph().edge_count());
        // The early snapshot we grabbed is still a valid, frozen view.
        assert!(early.round <= last.round);
        assert!(early.edge_count() <= last.edge_count());
    }

    #[test]
    fn stop_is_prompt_and_final_snapshot_published() {
        let g = generators::cycle(256);
        let engine = EngineBuilder::new(g, Push, 3).build();
        let svc = GossipService::spawn(engine, ServeConfig::default());
        let h = svc.handle();
        // Let it run a little, then stop from the handle side.
        while h.rounds() < 5 {
            std::thread::yield_now();
        }
        let (engine, out) = svc.stop();
        assert!(out.listener_stopped);
        assert_eq!(h.epoch(), out.epochs - 1);
        assert_eq!(h.snapshot().round, engine.quanta());
    }

    #[test]
    fn without_a_thread_join_runs_the_same_rounds() {
        let cfg = ServeConfig {
            snapshot_every: 4,
            budget: 30,
        };
        let served = GossipService::spawn(
            EngineBuilder::new(generators::star(64), Push, 5).build(),
            cfg,
        );
        let deferred = GossipService::unstarted(
            EngineBuilder::new(generators::star(64), Push, 5).build(),
            cfg,
            ListenerSet::new(),
        );
        let h = deferred.handle();
        assert!(!deferred.is_finished());
        assert_eq!(h.snapshot().round, 0);
        let (a, out_a) = served.join();
        let (b, out_b) = deferred.join();
        assert_eq!(out_a, out_b);
        assert_eq!(h.snapshot().round, 30);
        for u in a.graph().nodes() {
            assert_eq!(a.graph().neighbors(u), b.graph().neighbors(u));
        }
    }

    #[test]
    fn budget_zero_publishes_initial_and_final_only() {
        let g = generators::star(8);
        let engine = EngineBuilder::new(g, Push, 1).build();
        let svc = GossipService::spawn(
            engine,
            ServeConfig {
                snapshot_every: 4,
                budget: 0,
            },
        );
        let (_, out) = svc.join();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.epochs, 2);
    }
}
