//! Property suite: the sharded engine against the sequential oracle on
//! randomized `(graph, seed, shard count, horizon)` configurations.
//!
//! Failures shrink (vendored proptest now does binary-halving/tuple
//! shrinking), so a diverging configuration is reported near-minimal —
//! typically a handful of nodes and one round.

use gossip_core::rng::stream_rng;
use gossip_core::{ChurnBursts, Engine, MembershipPlan, Parallelism, Pull, Push, RuleId};
use gossip_graph::{generators, ArenaGraph, NodeId, ShardedArenaGraph};
use gossip_shard::transport::TransportBuilder;
use gossip_shard::{ShardReplica, ShardedEngine};
use proptest::prelude::*;

/// Sparse starting graph with `target_m` edges, capped at the complete
/// graph — sampled and shrunken `n` can drop below 5, where a tree plus
/// one extra edge per node no longer fits.
fn sparse(n: usize, target_m: u64, seed: u64, stream: u64) -> ArenaGraph {
    let cap = n as u64 * (n as u64 - 1) / 2;
    generators::tree_plus_random_edges(n, target_m.min(cap), &mut stream_rng(seed, stream, 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn sharded_trajectory_equals_sequential(
        seed in any::<u64>(),
        n in 2usize..400,
        shards in 1usize..9,
        rounds in 1usize..5,
    ) {
        let arena = sparse(n, n as u64, seed, 0);
        let sharded = ShardedArenaGraph::from_arena(&arena, shards);

        let mut seq = Engine::new(arena, Push, seed).with_parallelism(Parallelism::Sequential);
        let mut shd = ShardedEngine::new(sharded, Push, seed);
        for _ in 0..rounds {
            prop_assert_eq!(seq.step(), shd.step());
        }
        prop_assert_eq!(seq.graph().m(), shd.graph().m());
        for u in seq.graph().nodes() {
            prop_assert_eq!(seq.graph().neighbors(u), shd.graph().neighbors(u));
        }
        shd.graph().validate().map_err(proptest::test_runner::TestCaseError::fail)?;
    }

    #[test]
    fn sharded_graph_invariants_hold_after_rounds(
        seed in any::<u64>(),
        n in 2usize..300,
        shards in 1usize..9,
    ) {
        let und = sparse(n, 2 * n as u64, seed, 1);
        let g = ShardedArenaGraph::from_arena(&und, shards);
        let mut e = ShardedEngine::new(g, Pull, seed);
        for _ in 0..3 {
            e.step();
        }
        // Monotone growth, structural validity, plan-consistent ownership.
        prop_assert!(e.graph().m() >= und.m());
        e.graph().validate().map_err(proptest::test_runner::TestCaseError::fail)?;
    }

    #[test]
    fn churned_sharded_trajectory_equals_sequential(
        seed in any::<u64>(),
        n in 24usize..300,
        shards in 1usize..9,
        rounds in 2usize..8,
        nodes_per_burst in 1usize..6,
    ) {
        // Randomized membership plans on top of the headline contract: the
        // sharded engine under ANY (n, S, plan) must replay the sequential
        // arena engine bit-for-bit, leaves/rejoins included.
        let arena = sparse(n, 2 * n as u64, seed, 0);
        let plan = MembershipPlan::bursts(&ChurnBursts {
            n,
            nodes_per_burst,
            bursts: 2,
            first_round: 1,
            period: 2,
            rejoin_after: 1,
            bootstrap_contacts: 2,
            seed,
        });

        let mut seq = Engine::new(arena.clone(), Push, seed)
            .with_parallelism(Parallelism::Sequential)
            .with_membership(plan.clone());
        let mut shd = ShardedEngine::new(
            ShardedArenaGraph::from_arena(&arena, shards),
            Push,
            seed,
        )
        .with_membership(plan);
        for _ in 0..rounds {
            prop_assert_eq!(seq.step(), shd.step());
        }
        prop_assert_eq!(seq.membership_stats(), shd.membership_stats());
        prop_assert_eq!(seq.graph().m(), shd.graph().m());
        for u in seq.graph().nodes() {
            prop_assert_eq!(seq.graph().neighbors(u), shd.graph().neighbors(u));
        }
        shd.graph().validate().map_err(proptest::test_runner::TestCaseError::fail)?;
    }

    #[test]
    fn transport_trajectory_equals_sequential(
        seed in any::<u64>(),
        n in 2usize..300,
        shards in 1usize..6,
        rounds in 1usize..4,
    ) {
        // The serialized seam under ANY (n, S): thread-hosted workers
        // exchanging length-prefixed frames over socketpairs must replay
        // the sequential oracle bit-for-bit, by canonical delivery.
        let arena = sparse(n, n as u64, seed, 0);
        let mut seq = Engine::new(arena.clone(), Push, seed).with_parallelism(Parallelism::Sequential);
        let mut wire = TransportBuilder::new(
            ShardedArenaGraph::from_arena(&arena, shards),
            RuleId::Push,
            seed,
        )
        .spawn()
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for _ in 0..rounds {
            let expect = seq.step();
            let got = wire
                .try_step(None)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(expect, got);
        }
        prop_assert_eq!(seq.graph().m(), wire.graph().m());
        for u in seq.graph().nodes() {
            prop_assert_eq!(seq.graph().neighbors(u), wire.graph().neighbors(u));
        }
        wire.graph().validate().map_err(proptest::test_runner::TestCaseError::fail)?;
        wire.shutdown().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// One round body for every sharded engine: a replica that owns every
    /// span — the in-process engine — routes the `mail[source][owner]`
    /// grid entry for entry as `S` replicas that own one span each — the
    /// cross-process workers — under any rule, policy and round, with
    /// tombstoned rows in the graph.
    #[test]
    fn a_replica_owning_every_span_routes_the_grid_of_one_span_replicas(
        seed in any::<u64>(),
        n in 2usize..5000,
        shards in 1usize..9,
        rule in 0usize..3,
        round in 0u64..4,
        tombstones in 0usize..3,
        parallel in any::<bool>(),
    ) {
        let mut g = ShardedArenaGraph::from_arena(&sparse(n, 2 * n as u64, seed, 2), shards);
        for i in 0..tombstones {
            g.remove_member(NodeId::new((seed as usize).wrapping_add(i * 7919) % n));
        }
        let rule = RuleId::ALL[rule];
        let policy = if parallel { Parallelism::Parallel } else { Parallelism::Sequential };
        let mut whole = ShardReplica::new(g.clone(), rule, seed, policy, None, 0..shards);
        let barrier = whole.propose_and_route(round);

        let mut grid = Vec::new();
        let mut proposed = 0;
        for s in 0..shards {
            let one_thread = Parallelism::Sequential;
            let mut one = ShardReplica::new(g.clone(), rule, seed, one_thread, None, s..s + 1);
            proposed += one.propose_and_route(round).proposed;
            grid.push(one.mail()[s].clone());
        }
        prop_assert_eq!(whole.mail(), grid.as_slice());
        prop_assert_eq!(barrier.proposed, proposed);
    }
}

/// Hundreds of pool-parallel rounds, on the single-arena engine and on the
/// sharded one, start no thread beyond the pool's own workers (at most
/// `current_num_threads() - 1`): a round is a job on the persistent pool,
/// never a spawn.
#[test]
fn parallel_rounds_spawn_no_thread_per_round() {
    let n = 4096;
    assert!(Parallelism::default().engages(n));
    let arena = sparse(n, 4 * n as u64, 1, 0);
    let mut seq = Engine::new(arena.clone(), Pull, 7);
    let mut shd = ShardedEngine::new(ShardedArenaGraph::from_arena(&arena, 8), Pull, 7);
    for _ in 0..200 {
        seq.step();
        shd.step();
    }
    assert!(
        rayon::global_pool_threads_started() < rayon::current_num_threads(),
        "the pool spawned threads per round"
    );
}
