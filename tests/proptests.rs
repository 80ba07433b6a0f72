//! Property-based integration tests: invariants that must hold on *random*
//! inputs, not just the fixtures we thought of.

use discovery_gossip::prelude::*;
use gossip_graph::closure::{arcs_within_closure, Closure};
use gossip_graph::components::{connected_components, is_connected};
use proptest::prelude::*;

/// Strategy: a connected undirected graph built from a random tree plus
/// random extra edges.
fn connected_graph(max_n: usize) -> impl Strategy<Value = ArenaGraph> {
    (3..=max_n, any::<u64>(), 0usize..30).prop_map(|(n, seed, extra)| {
        let mut rng = gossip_core::rng::stream_rng(seed, 0, 0);
        let mut g = generators::random_tree(n, &mut rng);
        for _ in 0..extra {
            let a = NodeId::new(
                usize::try_from(rand::Rng::random_range(&mut rng, 0..n as u64)).unwrap(),
            );
            let b = NodeId::new(
                usize::try_from(rand::Rng::random_range(&mut rng, 0..n as u64)).unwrap(),
            );
            if a != b {
                g.add_edge(a, b);
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Push keeps the graph well-formed and monotone every single round,
    /// and completes within the theorem's envelope.
    #[test]
    fn push_run_invariants(g0 in connected_graph(24), seed in any::<u64>()) {
        let n = g0.n() as f64;
        let budget = (60.0 * n * n.ln().max(1.0) * n.ln().max(1.0)) as u64;
        let mut engine = Engine::new(g0.clone(), Push, seed);
        let mut check = ComponentwiseComplete::for_graph(&g0);
        let mut last_m = g0.m();
        let mut rounds = 0;
        while !gossip_core::ConvergenceCheck::is_converged(&mut check, engine.graph()) {
            engine.step();
            rounds += 1;
            prop_assert!(rounds <= budget, "exceeded {budget} rounds");
            let g = engine.graph();
            prop_assert!(g.m() >= last_m);
            last_m = g.m();
        }
        engine.graph().validate().unwrap();
        prop_assert!(engine.graph().is_complete());
    }

    /// Pull never connects distinct components, on arbitrary (possibly
    /// disconnected) graphs.
    #[test]
    fn pull_respects_components(seed in any::<u64>(), n in 4usize..20, edges in 2usize..24) {
        let mut rng = gossip_core::rng::stream_rng(seed, 1, 0);
        let mut g0 = ArenaGraph::new(n);
        for _ in 0..edges {
            let a = rand::Rng::random_range(&mut rng, 0..n as u32);
            let b = rand::Rng::random_range(&mut rng, 0..n as u32);
            if a != b {
                g0.add_edge(NodeId(a), NodeId(b));
            }
        }
        let (labels, _) = connected_components(&g0);
        let mut engine = Engine::new(g0, Pull, seed);
        for _ in 0..200 {
            engine.step();
        }
        for e in engine.graph().edges() {
            prop_assert_eq!(labels[e.a.index()], labels[e.b.index()],
                "edge {:?} crosses components", e);
        }
        engine.graph().validate().unwrap();
    }

    /// The directed walk's arcs stay within the initial closure at all times
    /// and the arc count is nondecreasing.
    #[test]
    fn directed_pull_closure_invariant(seed in any::<u64>(), n in 4usize..16, arcs in 4usize..40) {
        let mut rng = gossip_core::rng::stream_rng(seed, 2, 0);
        let mut g0 = DirectedGraph::new(n);
        for _ in 0..arcs {
            let a = rand::Rng::random_range(&mut rng, 0..n as u32);
            let b = rand::Rng::random_range(&mut rng, 0..n as u32);
            if a != b {
                g0.add_arc(NodeId(a), NodeId(b));
            }
        }
        let closure = Closure::of(&g0);
        let mut engine = Engine::new(g0, DirectedPull, seed);
        let mut last = engine.graph().arc_count();
        for _ in 0..150 {
            engine.step();
            prop_assert!(engine.graph().arc_count() >= last);
            last = engine.graph().arc_count();
            prop_assert!(arcs_within_closure(engine.graph(), &closure));
        }
    }

    /// Generators only emit connected graphs where they promise to.
    #[test]
    fn random_generators_connected(seed in any::<u64>(), n in 4usize..40) {
        let mut rng = gossip_core::rng::stream_rng(seed, 3, 0);
        prop_assert!(is_connected(&generators::random_tree(n, &mut rng)));
        let max_m = (n as u64) * (n as u64 - 1) / 2;
        prop_assert!(is_connected(&generators::gnm_connected(n, max_m.min(2 * n as u64), &mut rng)));
        if n > 6 {
            prop_assert!(is_connected(&generators::watts_strogatz(n, 2, 0.2, &mut rng)));
        }
        prop_assert!(is_connected(&generators::barabasi_albert(n, 2, &mut rng)));
    }

    /// Knowledge derived from any engine-completed graph is complete, and
    /// Name Dropper run on any connected start also completes — two paths to
    /// the same fixed point.
    #[test]
    fn baselines_and_process_share_fixed_point(g0 in connected_graph(16), seed in any::<u64>()) {
        let mut check = ComponentwiseComplete::for_graph(&g0);
        let mut engine = Engine::new(g0.clone(), Push, seed);
        let out = engine.run_until(&mut check, 100_000_000);
        prop_assert!(out.converged);
        prop_assert!(Knowledge::from_undirected(engine.graph()).is_complete());

        let nd = NameDropper::new(Knowledge::from_undirected(&g0), seed).run_to_completion(1_000_000);
        prop_assert!(nd.complete);
    }
}
