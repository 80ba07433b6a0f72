//! Edge provenance: *who introduced whom, and when*.
//!
//! In the social-network reading of the paper (§1), every new edge has a
//! broker — the node whose triangulation or two-hop step created it. This
//! module records that attribution so experiments can ask structural
//! questions the paper raises (who are the brokers? how do introductions
//! concentrate?) and so any run can be replayed or audited edge by edge.

use crate::convergence::ConvergenceCheck;
use crate::engine::Engine;
use crate::process::{GossipGraph, ProposalRule};
use crate::seam::RoundEngine;
use gossip_graph::NodeId;
use std::fmt::Write as _;

/// One edge birth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeEvent {
    /// Round in which the edge appeared (1-based, the post-step round).
    pub round: u64,
    /// The node whose proposal created the edge.
    pub introducer: NodeId,
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
}

/// A full introduction log for one run.
///
/// ```
/// use gossip_core::{ComponentwiseComplete, DiscoveryTrace, Engine, Push};
/// use gossip_graph::generators;
/// let g = generators::star(6);
/// let mut check = ComponentwiseComplete::for_graph(&g);
/// let mut engine = Engine::new(g, Push, 1);
/// let mut trace = DiscoveryTrace::default();
/// engine.run_traced(&mut check, 1_000_000, &mut trace);
/// assert_eq!(trace.len(), 10); // C(5,2) leaf pairs discovered
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiscoveryTrace {
    events: Vec<EdgeEvent>,
}

impl DiscoveryTrace {
    /// All events in application order.
    pub fn events(&self) -> &[EdgeEvent] {
        &self.events
    }

    /// Number of recorded edge births.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of introductions brokered by each node (indexed by node id).
    pub fn introductions_per_node(&self, n: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n];
        for e in &self.events {
            counts[e.introducer.index()] += 1;
        }
        counts
    }

    /// CSV rendering (`round,introducer,a,b`), one line per event.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,introducer,a,b\n");
        for e in &self.events {
            let _ = writeln!(out, "{},{},{},{}", e.round, e.introducer, e.a, e.b);
        }
        out
    }
}

impl<G: GossipGraph, R: ProposalRule<G>> Engine<G, R> {
    /// Like [`Engine::step`], additionally appending one [`EdgeEvent`] per
    /// *new* edge to `trace`. Identical random choices and graph evolution
    /// as `step` — tracing is observation only.
    pub fn step_traced(&mut self, trace: &mut DiscoveryTrace) -> crate::process::RoundStats {
        self.step_attributed(|round, introducer, a, b| {
            trace.events.push(EdgeEvent {
                round,
                introducer,
                a,
                b,
            });
        })
    }

    /// Runs to convergence while tracing every edge birth. The loop is the
    /// shared [`crate::seam::run_engine_listened`] — the traced engine is
    /// just a [`RoundEngine`] whose quantum appends edge events, and the
    /// check rides the listener seam like everywhere else.
    pub fn run_traced<C: ConvergenceCheck<G>>(
        &mut self,
        check: &mut C,
        max_rounds: u64,
        trace: &mut DiscoveryTrace,
    ) -> crate::engine::RunOutcome {
        let mut traced = Traced {
            engine: self,
            trace,
        };
        crate::seam::run_engine_until(&mut traced, check, max_rounds)
    }
}

/// [`RoundEngine`] adapter: one quantum = one traced round.
struct Traced<'a, G, R> {
    engine: &'a mut Engine<G, R>,
    trace: &'a mut DiscoveryTrace,
}

impl<G: GossipGraph, R: ProposalRule<G>> RoundEngine for Traced<'_, G, R> {
    type Graph = G;
    fn graph(&self) -> &G {
        self.engine.graph()
    }
    fn quanta(&self) -> u64 {
        self.engine.round()
    }
    fn step_quantum(&mut self) -> crate::process::RoundStats {
        self.engine.step_traced(self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::ComponentwiseComplete;
    use crate::rules::{Pull, Push};
    use gossip_graph::generators;

    #[test]
    fn trace_accounts_for_every_new_edge() {
        let g0 = generators::star(12);
        let m0 = g0.m();
        let mut check = ComponentwiseComplete::for_graph(&g0);
        let mut engine = Engine::new(g0, Push, 5);
        let mut trace = DiscoveryTrace::default();
        let out = engine.run_traced(&mut check, 1_000_000, &mut trace);
        assert!(out.converged);
        assert_eq!(trace.len() as u64, engine.graph().m() - m0);
        // Every traced edge exists; rounds are nondecreasing.
        let mut last_round = 0;
        for e in trace.events() {
            assert!(engine.graph().has_edge(e.a, e.b));
            assert!(e.round >= last_round);
            last_round = e.round;
        }
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let g0 = generators::cycle(16);
        let mut e1 = Engine::new(g0.clone(), Pull, 99);
        let mut e2 = Engine::new(g0, Pull, 99);
        let mut trace = DiscoveryTrace::default();
        for _ in 0..200 {
            let s1 = e1.step();
            let s2 = e2.step_traced(&mut trace);
            assert_eq!(s1, s2);
        }
        assert!(e1.graph().same_edges(e2.graph()));
    }

    #[test]
    fn push_introducer_is_a_mutual_neighbor_at_birth() {
        // For push, the introducer must have been adjacent to both endpoints
        // when the edge was born. We verify by replaying on a fresh engine.
        let g0 = generators::random_tree(20, &mut crate::rng::stream_rng(3, 0, 0));
        let mut check = ComponentwiseComplete::for_graph(&g0);
        let mut engine = Engine::new(g0.clone(), Push, 12);
        let mut trace = DiscoveryTrace::default();
        engine.run_traced(&mut check, 1_000_000, &mut trace);

        let mut replay = Engine::new(g0, Push, 12);
        let mut idx = 0;
        while idx < trace.len() {
            let pre = replay.graph().clone();
            replay.step();
            while idx < trace.len() && trace.events()[idx].round == replay.round() {
                let e = trace.events()[idx];
                assert!(
                    pre.has_edge(e.introducer, e.a) && pre.has_edge(e.introducer, e.b),
                    "introducer {:?} not adjacent to both {:?} and {:?} pre-round",
                    e.introducer,
                    e.a,
                    e.b
                );
                idx += 1;
            }
        }
    }

    #[test]
    fn star_center_brokers_everything_early() {
        // On a star, the first introduction is necessarily brokered by the
        // center (leaves have one neighbor).
        let g0 = generators::star(8);
        let mut engine = Engine::new(g0, Push, 3);
        let mut trace = DiscoveryTrace::default();
        while trace.is_empty() {
            engine.step_traced(&mut trace);
        }
        assert_eq!(trace.events()[0].introducer, NodeId(0));
    }

    #[test]
    fn pull_introducer_is_an_endpoint() {
        // The two-hop walk connects the walker itself: introducer == a or b.
        let g0 = generators::path(10);
        let mut check = ComponentwiseComplete::for_graph(&g0);
        let mut engine = Engine::new(g0, Pull, 7);
        let mut trace = DiscoveryTrace::default();
        engine.run_traced(&mut check, 1_000_000, &mut trace);
        for e in trace.events() {
            assert!(e.introducer == e.a || e.introducer == e.b);
        }
    }

    #[test]
    fn csv_and_queries() {
        let g0 = generators::star(6);
        let mut check = ComponentwiseComplete::for_graph(&g0);
        let mut engine = Engine::new(g0, Push, 2);
        let mut trace = DiscoveryTrace::default();
        engine.run_traced(&mut check, 1_000_000, &mut trace);
        let csv = trace.to_csv();
        assert!(csv.starts_with("round,introducer,a,b\n"));
        assert_eq!(csv.lines().count(), trace.len() + 1);
        let per_node = trace.introductions_per_node(6);
        assert_eq!(per_node.iter().sum::<u64>(), trace.len() as u64);
    }
}
