//! Asynchronous (continuous-time) execution of the discovery processes.
//!
//! The paper analyzes synchronous rounds: all nodes act simultaneously
//! against `G_t`. The standard asynchronous gossip model instead activates
//! each node at the points of an independent rate-1 Poisson process; an
//! activation samples and applies one proposal **atomically** against the
//! *current* graph. One unit of continuous time then corresponds to one
//! expected activation per node — the natural exchange rate to a synchronous
//! round.
//!
//! Two modeling consequences worth measuring (experiment E14):
//!
//! * no same-round collisions: two nodes can never propose duplicates
//!   "simultaneously", so fewer proposals are wasted;
//! * no synchrony barrier: a node can immediately exploit an edge created a
//!   moment ago, where the synchronous engine makes it wait a full round.
//!
//! Implementation: a binary-heap event queue of activation times with
//! exponential(1) inter-activation gaps per node. Everything is driven by a
//! single RNG stream, so runs are deterministic in the seed (the process is
//! inherently sequential — there is no parallel phase to keep consistent).

use crate::listener::RoundListener;
use crate::process::{GossipGraph, ProposalRule, RoundStats};
use crate::rng::stream_rng;
use gossip_graph::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::convert::Infallible;

/// Total-ordered f64 wrapper for the event queue. Activation times are
/// finite and positive by construction, where `total_cmp` is the usual
/// `<` order.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Continuous-time engine: Poisson-clock activations of a [`ProposalRule`].
///
/// It runs on the shared loop, [`crate::seam::run_engine_until`], whose
/// budget counts activations; the continuous time reached is
/// [`AsyncEngine::time`].
///
/// ```
/// use gossip_core::{run_engine_until, AsyncEngine, ComponentwiseComplete, Push};
/// use gossip_graph::generators;
/// let g = generators::star(12);
/// let mut check = ComponentwiseComplete::for_graph(&g);
/// let mut engine = AsyncEngine::new(g, Push, 7);
/// let Ok(out) = run_engine_until(&mut engine, &mut check, u64::MAX);
/// assert!(out.converged);
/// assert!(engine.time() > 0.0);
/// ```
pub struct AsyncEngine<G, R> {
    graph: G,
    rule: R,
    rng: SmallRng,
    queue: BinaryHeap<Reverse<(Time, u32)>>,
    now: f64,
    activations: u64,
}

impl<G: GossipGraph, R: ProposalRule<G>> AsyncEngine<G, R> {
    /// Creates the engine; every node gets an initial exponential activation
    /// time.
    pub fn new(graph: G, rule: R, seed: u64) -> Self {
        let n = graph.node_count();
        let mut rng = stream_rng(seed, u64::MAX - 100, 0);
        let mut queue = BinaryHeap::with_capacity(n);
        for u in 0..n {
            let t = exponential(&mut rng);
            queue.push(Reverse((Time(t), u as u32)));
        }
        AsyncEngine {
            graph,
            rule,
            rng,
            queue,
            now: 0.0,
            activations: 0,
        }
    }

    /// Current continuous time.
    pub fn time(&self) -> f64 {
        self.now
    }

    /// Total activations so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// The current graph.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// Executes the next activation; returns what it proposed and added.
    /// On a graph with no nodes nothing activates: the activation is empty
    /// and still counts, as a synchronous round on an empty graph does.
    pub fn step(&mut self) -> RoundStats {
        self.activations += 1;
        let mut stats = RoundStats::default();
        let Some(Reverse((Time(t), u))) = self.queue.pop() else {
            return stats;
        };
        debug_assert!(t >= self.now);
        self.now = t;
        let proposal = self.rule.propose(&self.graph, NodeId(u), &mut self.rng);
        for &(a, b) in proposal.as_slice() {
            stats.proposed += 1;
            stats.added += self.graph.apply_edge(a, b) as u64;
        }
        let next = t + exponential(&mut self.rng);
        self.queue.push(Reverse((Time(next), u)));
        stats
    }
}

impl<G: GossipGraph, R: ProposalRule<G>> crate::seam::RoundEngine for AsyncEngine<G, R> {
    type Graph = G;
    type Error = Infallible;
    #[inline]
    fn graph(&self) -> &G {
        &self.graph
    }
    /// The async engine's scheduling quantum is one activation.
    #[inline]
    fn quanta(&self) -> u64 {
        self.activations
    }
    #[inline]
    fn step_listened(&mut self, _: &mut dyn RoundListener<G>) -> Result<RoundStats, Infallible> {
        Ok(self.step())
    }
}

/// Standard exponential(1) sample by inversion; guards against ln(0).
fn exponential(rng: &mut SmallRng) -> f64 {
    let u: f64 = rng.random();
    -(1.0 - u).max(f64::MIN_POSITIVE).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::ComponentwiseComplete;
    use crate::rules::{Pull, Push};
    use crate::seam::run_engine_until;
    use gossip_graph::generators;

    #[test]
    fn async_push_completes() {
        let g = generators::star(16);
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut engine = AsyncEngine::new(g, Push, 7);
        let Ok(out) = run_engine_until(&mut engine, &mut check, u64::MAX);
        assert!(out.converged);
        assert!(engine.graph().is_complete());
        assert!(engine.time() > 0.0);
        assert!(engine.activations() > 0);
    }

    #[test]
    fn async_pull_completes() {
        let g = generators::path(14);
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut engine = AsyncEngine::new(g, Pull, 3);
        let Ok(out) = run_engine_until(&mut engine, &mut check, u64::MAX);
        assert!(out.converged);
    }

    #[test]
    fn time_is_monotone_and_activations_average_one_per_unit() {
        let g = generators::complete(32); // complete: pure clock dynamics
        let mut engine = AsyncEngine::new(g, Push, 5);
        let mut last = 0.0;
        for _ in 0..32 * 100 {
            engine.step();
            assert!(engine.time() >= last);
            last = engine.time();
        }
        // 3200 activations over 32 rate-1 clocks ≈ 100 time units ± noise.
        let t = engine.time();
        assert!((70.0..140.0).contains(&t), "elapsed time {t}");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::cycle(12);
        let run = |seed| {
            let mut check = ComponentwiseComplete::for_graph(&g);
            let mut e = AsyncEngine::new(g.clone(), Push, seed);
            let Ok(out) = run_engine_until(&mut e, &mut check, u64::MAX);
            (e.activations(), e.time().to_bits(), out.final_edges)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn async_converges_in_comparable_time_to_sync_rounds() {
        // The async time at convergence should be the same order as the
        // synchronous round count (one time unit ≈ one round of work).
        let g = generators::star(24);
        let sync = {
            let mut check = ComponentwiseComplete::for_graph(&g);
            let mut e = crate::engine::Engine::new(g.clone(), Push, 9);
            e.run_until(&mut check, 1_000_000).rounds as f64
        };
        let async_time = {
            let mut check = ComponentwiseComplete::for_graph(&g);
            let mut e = AsyncEngine::new(g.clone(), Push, 9);
            let Ok(_) = run_engine_until(&mut e, &mut check, u64::MAX);
            e.time()
        };
        let ratio = async_time / sync;
        assert!(
            (0.2..5.0).contains(&ratio),
            "async {async_time:.1} vs sync {sync:.1}: ratio {ratio:.2}"
        );
    }

    #[test]
    fn directed_async_reaches_closure() {
        use crate::convergence::ClosureReached;
        use crate::rules::DirectedPull;
        let g = generators::directed_cycle(8);
        let mut check = ClosureReached::for_graph(&g);
        let mut e = AsyncEngine::new(g, DirectedPull, 4);
        let Ok(out) = run_engine_until(&mut e, &mut check, u64::MAX);
        assert!(out.converged);
        assert_eq!(out.final_edges, 56);
    }

    #[test]
    fn an_empty_graph_runs_empty_activations_to_the_budget() {
        use crate::convergence::Never;
        use gossip_graph::ArenaGraph;
        let mut e = AsyncEngine::new(ArenaGraph::new(0), Push, 7);
        let Ok(out) = run_engine_until(&mut e, &mut Never, 3);
        assert_eq!((out.rounds, out.converged, out.final_edges), (3, false, 0));
        assert_eq!((e.activations(), e.time()), (3, 0.0));
    }

    #[test]
    fn exponential_sampler_is_positive_with_unit_mean() {
        let mut rng = stream_rng(1, 2, 3);
        let mut sum = 0.0;
        let k = 20_000;
        for _ in 0..k {
            let x = exponential(&mut rng);
            assert!(x > 0.0);
            sum += x;
        }
        let mean = sum / k as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }
}
