//! Property tests for the process engine: semantics the proofs rely on,
//! checked on random graphs and seeds.

use gossip_core::rng::stream_rng;
use gossip_core::{
    ComponentwiseComplete, ConvergenceCheck, DiscoveryTrace, Engine, Faulty, HybridPushPull,
    Parallelism, Partial, ProposalRule, Pull, Push,
};
use gossip_graph::{generators, ArenaGraph, NodeId};
use proptest::prelude::*;
use rand::Rng;

fn random_connected(seed: u64, n: usize, extra: usize) -> ArenaGraph {
    let mut rng = stream_rng(seed, 0, 0);
    let mut g = generators::random_tree(n, &mut rng);
    for _ in 0..extra {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        if a != b {
            g.add_edge(NodeId(a), NodeId(b));
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seq/par equivalence holds for every rule, not just Push.
    #[test]
    fn all_rules_seq_par_equivalent(seed in any::<u64>(), n in 4usize..32) {
        let g = random_connected(seed, n, n / 2);
        fn check<R: ProposalRule<ArenaGraph> + Clone>(
            g: &ArenaGraph,
            rule: R,
            seed: u64,
        ) -> Result<(), TestCaseError> {
            let mut a = Engine::new(g.clone(), rule.clone(), seed)
                .with_parallelism(Parallelism::Sequential);
            let mut b = Engine::new(g.clone(), rule, seed)
                .with_parallelism(Parallelism::Parallel);
            for _ in 0..30 {
                prop_assert_eq!(a.step(), b.step());
            }
            prop_assert!(a.graph().same_edges(b.graph()));
            Ok(())
        }
        check(&g, Push, seed)?;
        check(&g, Pull, seed)?;
        check(&g, HybridPushPull, seed)?;
        check(&g, Faulty::new(Push, 0.3), seed)?;
        check(&g, Partial::new(Pull, 0.5), seed)?;
    }

    /// The wrapped variants only ever *remove* proposals relative to their
    /// inner rule — never invent edges the inner rule wouldn't propose.
    #[test]
    fn faulty_is_a_filter(seed in any::<u64>(), n in 4usize..24) {
        let g = random_connected(seed, n, 6);
        for round in 0..20u64 {
            for u in 0..n {
                let mut r1 = stream_rng(seed, round, u as u64);
                let mut r2 = stream_rng(seed, round, u as u64);
                let base = Push.propose(&g, NodeId::new(u), &mut r1);
                let filtered = Faulty::new(Push, 0.5).propose(&g, NodeId::new(u), &mut r2);
                for e in filtered.as_slice() {
                    prop_assert!(base.as_slice().contains(e));
                }
            }
        }
    }

    /// Hybrid supersets: the push half of a hybrid proposal equals plain
    /// push's proposal under the same stream.
    #[test]
    fn hybrid_contains_push_choice(seed in any::<u64>(), n in 4usize..24) {
        let g = random_connected(seed, n, 6);
        for u in 0..n {
            let mut r1 = stream_rng(seed, 0, u as u64);
            let mut r2 = stream_rng(seed, 0, u as u64);
            let push = Push.propose(&g, NodeId::new(u), &mut r1);
            let hybrid = HybridPushPull.propose(&g, NodeId::new(u), &mut r2);
            for e in push.as_slice() {
                prop_assert!(hybrid.as_slice().contains(e), "hybrid dropped the push edge");
            }
        }
    }

    /// Tracing never changes the run, and accounts for every edge, on
    /// arbitrary inputs.
    #[test]
    fn trace_is_pure_observation(seed in any::<u64>(), n in 4usize..24) {
        let g = random_connected(seed, n, 4);
        let m0 = g.m();
        let mut plain = Engine::new(g.clone(), Push, seed);
        let mut traced = Engine::new(g, Push, seed);
        let mut trace = DiscoveryTrace::default();
        for _ in 0..100 {
            let a = plain.step();
            let b = traced.step_traced(&mut trace);
            prop_assert_eq!(a, b);
        }
        prop_assert!(plain.graph().same_edges(traced.graph()));
        prop_assert_eq!(trace.len() as u64, traced.graph().m() - m0);
    }

    /// Convergence checks are stable: once converged, always converged
    /// (edges only grow).
    #[test]
    fn convergence_is_monotone(seed in any::<u64>(), n in 4usize..20) {
        let g = random_connected(seed, n, 2);
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut engine = Engine::new(g, Pull, seed);
        let mut converged_at: Option<u64> = None;
        for _ in 0..20_000 {
            engine.step();
            let now = check.is_converged(engine.graph());
            if let Some(at) = converged_at {
                prop_assert!(now, "convergence regressed after round {at}");
            } else if now {
                converged_at = Some(engine.round());
            }
            if converged_at.is_some() && engine.round() > converged_at.unwrap() + 5 {
                break;
            }
        }
        prop_assert!(converged_at.is_some(), "never converged within budget");
    }
}
