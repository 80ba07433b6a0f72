//! Shrinking property suite for the datagram cluster transport.
//!
//! The centerpiece claim, as a property: for any (graph, shard count,
//! rule, seed, loss rate, MTU), the cluster engine's trajectory and
//! final state are **bit-identical** to the sequential in-process
//! engine. On failure proptest shrinks toward the smallest
//! configuration that still diverges — a far better bug report than a
//! failing 2^20-node experiment.
//!
//! Thread mode only: proptest cases run inside the libtest harness,
//! where re-exec process workers are off limits.

use gossip_cluster::{ClusterBuilder, DatagramLoss, DEFAULT_MTU};
use gossip_core::rng::stream_rng;
use gossip_core::RuleId;
use gossip_graph::{generators, ShardedArenaGraph};
use gossip_shard::ShardedEngine;
use proptest::prelude::*;

fn sharded(n: usize, extra: u64, seed: u64, shards: usize) -> ShardedArenaGraph {
    let und = generators::tree_plus_random_edges(n, extra, &mut stream_rng(seed, 0, 0));
    ShardedArenaGraph::from_arena(&und, shards)
}

fn rule_strategy() -> impl Strategy<Value = RuleId> {
    (0usize..3).prop_map(|i| RuleId::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Lossless clusters replay the sequential trajectory exactly, for
    /// any shard count the arena supports.
    #[test]
    fn cluster_trajectory_equals_sequential(
        n in 64usize..500,
        extra_frac in 0u64..3,
        graph_seed in 0u64..1_000,
        engine_seed in 0u64..1_000,
        shards in 1usize..5,
        rule in rule_strategy(),
        rounds in 1u64..5,
    ) {
        let g = sharded(n, (n as u64 - 1) + extra_frac * n as u64, graph_seed, shards);
        let (seq_stats, seq_g) = gossip_core::with_rule!(rule, |r| {
            let mut seq = ShardedEngine::new(g.clone(), r, engine_seed);
            let stats: Vec<_> = (0..rounds).map(|_| seq.step()).collect();
            (stats, seq.graph().clone())
        });
        let mut cluster = ClusterBuilder::new(g, rule, engine_seed)
            .spawn()
            .expect("spawn cluster");
        let cluster_stats: Vec<_> = (0..rounds).map(|_| cluster.step()).collect();
        prop_assert_eq!(seq_stats, cluster_stats, "trajectory diverged");
        prop_assert_eq!(seq_g.m(), cluster.graph().m());
        for u in seq_g.nodes() {
            prop_assert_eq!(
                seq_g.neighbors(u),
                cluster.graph().neighbors(u),
                "row {:?} diverged", u
            );
        }
        cluster.shutdown().expect("clean shutdown");
    }

    /// Seeded datagram loss (drops + duplicates) never changes the
    /// result — the window layer repairs everything before the round
    /// barrier — and the injected-fault counters themselves reproduce.
    /// A third of the cases pair heavy loss with a small MTU, so holes
    /// open (and are nak'd on sight) in the middle of fragment runs.
    #[test]
    fn lossy_cluster_still_matches_and_injects_deterministically(
        n in 64usize..400,
        graph_seed in 0u64..1_000,
        engine_seed in 0u64..1_000,
        shards in 2usize..4,
        loss_seed in 0u64..1_000,
        (drop_per_mille, mtu) in (0usize..3)
            .prop_map(|i| [(50u16, DEFAULT_MTU), (200, DEFAULT_MTU), (200, 256)][i]),
        dup_per_mille in 0u16..100,
        rounds in 1u64..4,
    ) {
        let g = sharded(n, n as u64, graph_seed, shards);
        let loss = DatagramLoss { seed: loss_seed, drop_per_mille, dup_per_mille };
        let run = |g: ShardedArenaGraph| {
            let mut cluster = ClusterBuilder::new(g, RuleId::Pull, engine_seed)
                .with_loss(loss)
                .with_mtu(mtu)
                .spawn()
                .expect("spawn lossy cluster");
            let stats: Vec<_> = (0..rounds).map(|_| cluster.step()).collect();
            let injected = (
                cluster.stats().endpoint.injected_drops,
                cluster.stats().endpoint.injected_dups,
            );
            cluster.shutdown().expect("clean shutdown");
            (stats, injected)
        };
        let mut seq = ShardedEngine::new(g.clone(), gossip_core::Pull, engine_seed);
        let seq_stats: Vec<_> = (0..rounds).map(|_| seq.step()).collect();
        let (a_stats, a_injected) = run(g.clone());
        let (b_stats, b_injected) = run(g);
        prop_assert_eq!(&a_stats, &seq_stats, "lossy cluster diverged from sequential");
        prop_assert_eq!(a_stats, b_stats, "two identical lossy runs diverged");
        prop_assert_eq!(a_injected, b_injected, "fault injection not reproducible");
    }

    /// MTU is a pure transport knob: any positive budget (forcing
    /// anywhere from zero to heavy fragmentation) yields the same
    /// rounds.
    #[test]
    fn mtu_never_affects_results(
        n in 64usize..300,
        graph_seed in 0u64..1_000,
        engine_seed in 0u64..1_000,
        mtu in (0usize..4).prop_map(|i| [64usize, 200, 700, 9000][i]),
        rounds in 1u64..4,
    ) {
        let g = sharded(n, n as u64, graph_seed, 2);
        let mut seq = ShardedEngine::new(g.clone(), gossip_core::Push, engine_seed);
        let mut cluster = ClusterBuilder::new(g, RuleId::Push, engine_seed)
            .with_mtu(mtu)
            .spawn()
            .expect("spawn cluster");
        for r in 0..rounds {
            prop_assert_eq!(seq.step(), cluster.step(), "round {} diverged at mtu {}", r, mtu);
        }
        cluster.shutdown().expect("clean shutdown");
    }
}
