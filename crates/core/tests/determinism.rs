//! Determinism regression suite for the pool-backed parallel engine.
//!
//! The engine's contract is that scheduling never affects results: the
//! sequential path, the pool-parallel path, and any `Parallelism::Auto`
//! mixture must produce bit-identical graphs (same edge sets *and* same
//! rows), and reusing the process-global worker pool
//! across consecutive runs or experiments must leak no state between them.
//!
//! The sharded engine (`gossip-shard`, a dev-dependency here) extends the
//! contract to the shard axis: a `ShardedEngine` over any shard count must
//! reproduce the sequential arena engine's trajectory bit-for-bit. The
//! suite pins `S ∈ {1, 2, 8}`; CI runs the whole file under
//! `RAYON_NUM_THREADS ∈ {1, 2, 8}`, covering the `(S, threads)` grid the
//! design promises.

use gossip_core::rng::stream_rng;
use gossip_core::{
    ChurnBursts, ComponentwiseComplete, Engine, MembershipPlan, Never, Parallelism, Pull, Push,
    RunOutcome,
};
use gossip_graph::{generators, ArenaGraph, ShardedArenaGraph};
use gossip_shard::ShardedEngine;

/// The `Auto` threshold the engine ships with.
fn default_threshold() -> usize {
    match Parallelism::default() {
        Parallelism::Auto { threshold } => threshold,
        _ => panic!("default parallelism is not Auto"),
    }
}

/// Asserts two graphs are bit-identical for all future sampling: the same
/// rows, node by node.
fn assert_bit_identical(a: &ArenaGraph, b: &ArenaGraph, ctx: &str) {
    assert!(a.same_edges(b), "{ctx}: edge sets differ");
    for u in a.nodes() {
        assert_eq!(
            a.neighbors(u),
            b.neighbors(u),
            "{ctx}: adjacency order differs at {u:?}"
        );
    }
}

#[test]
fn seq_and_pool_bit_identical_across_auto_threshold() {
    // Graph sizes straddling the Auto threshold: below it Auto runs the
    // sequential path, at/above it the pool path — all three policies must
    // agree exactly either way.
    let threshold = default_threshold();
    for n in [threshold - 1, threshold, threshold + 1] {
        let g = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(42, 0, 0));
        let mut seq = Engine::new(g.clone(), Push, 99).with_parallelism(Parallelism::Sequential);
        let mut par = Engine::new(g.clone(), Push, 99).with_parallelism(Parallelism::Parallel);
        let mut auto = Engine::new(g, Push, 99); // default Auto
        for round in 0..6 {
            let s = seq.step();
            assert_eq!(s, par.step(), "n={n} round={round}: par stats differ");
            assert_eq!(s, auto.step(), "n={n} round={round}: auto stats differ");
        }
        assert_bit_identical(seq.graph(), par.graph(), &format!("n={n} seq vs par"));
        assert_bit_identical(seq.graph(), auto.graph(), &format!("n={n} seq vs auto"));
    }
}

#[test]
fn pool_reuse_across_consecutive_runs_leaks_no_state() {
    // Two consecutive run_until calls on the same engine (pool reused) must
    // match one fresh engine driven the same total number of rounds.
    let n = default_threshold() + 100;
    let g = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(7, 0, 0));

    let mut resumed = Engine::new(g.clone(), Pull, 5).with_parallelism(Parallelism::Parallel);
    let first: RunOutcome = resumed.run_until(&mut Never, 3);
    assert_eq!(first.rounds, 3);
    let second = resumed.run_until(&mut Never, 4);
    assert_eq!(second.rounds, 7);

    let mut fresh = Engine::new(g, Pull, 5).with_parallelism(Parallelism::Parallel);
    let all = fresh.run_until(&mut Never, 7);
    assert_eq!(all.final_edges, second.final_edges);
    assert_bit_identical(fresh.graph(), resumed.graph(), "resumed vs fresh");
}

#[test]
fn pool_reuse_across_experiments_leaks_no_state() {
    // Two different experiments back to back in one process — the pool
    // carries over — must each match the run the other order would give
    // (i.e. results depend only on (graph, rule, seed), never on what the
    // pool executed before).
    let n = default_threshold() + 17;
    let mk =
        |seed: u64| generators::tree_plus_random_edges(n, n as u64, &mut stream_rng(seed, 0, 0));

    let run = |g: &ArenaGraph, seed: u64| -> (u64, ArenaGraph) {
        let mut e = Engine::new(g.clone(), Push, seed).with_parallelism(Parallelism::Parallel);
        let out = e.run_until(&mut Never, 25);
        (out.final_edges, e.into_graph())
    };

    let (ga, gb) = (mk(1), mk(2));
    // Order A then B.
    let (ma1, fa1) = run(&ga, 111);
    let (mb1, fb1) = run(&gb, 222);
    // Order B then A (pool warmed differently).
    let (mb2, fb2) = run(&gb, 222);
    let (ma2, fa2) = run(&ga, 111);

    assert_eq!(ma1, ma2, "experiment A edge growth changed with order");
    assert_eq!(mb1, mb2, "experiment B edge growth changed with order");
    assert_bit_identical(&fa1, &fa2, "experiment A final graph");
    assert_bit_identical(&fb1, &fb2, "experiment B final graph");
}

#[test]
fn arena_backend_seq_and_pool_bit_identical_across_auto_threshold() {
    // The tentpole backend: the flat pipeline's batch apply must leave the
    // arena graph bit-identical across scheduling policies, straddling the
    // Auto threshold just like the suite above.
    fn run<R>(g: &ArenaGraph, rule: R, par: Parallelism) -> ArenaGraph
    where
        R: gossip_core::ProposalRule<ArenaGraph>,
    {
        let mut e = Engine::new(g.clone(), rule, 99).with_parallelism(par);
        for _ in 0..6 {
            e.step();
        }
        e.into_graph()
    }
    let threshold = default_threshold();
    for n in [threshold - 1, threshold, threshold + 1] {
        let g = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(42, 0, 0));
        for policy in [Parallelism::Parallel, Parallelism::default()] {
            assert_bit_identical(
                &run(&g, Push, Parallelism::Sequential),
                &run(&g, Push, policy),
                &format!("push n={n} seq vs {policy:?}"),
            );
            assert_bit_identical(
                &run(&g, Pull, Parallelism::Sequential),
                &run(&g, Pull, policy),
                &format!("pull n={n} seq vs {policy:?}"),
            );
        }
    }
}

#[test]
fn arena_backend_step_stats_match_across_policies() {
    // Round-by-round stats (proposed/added) must agree too, not just the
    // final graph: the batch dedup path counts exactly what the
    // one-at-a-time path counts.
    let n = default_threshold() + 33;
    let g = generators::tree_plus_random_edges(n, 3 * n as u64, &mut stream_rng(8, 0, 0));
    let mut seq = Engine::new(g.clone(), Push, 5).with_parallelism(Parallelism::Sequential);
    let mut par = Engine::new(g, Push, 5).with_parallelism(Parallelism::Parallel);
    for round in 0..8 {
        assert_eq!(seq.step(), par.step(), "round {round} stats differ");
    }
}

#[test]
fn arena_backend_pool_reuse_across_runs_leaks_no_state() {
    let n = default_threshold() + 100;
    let g = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(7, 0, 0));

    let mut resumed = Engine::new(g.clone(), Pull, 5).with_parallelism(Parallelism::Parallel);
    resumed.run_until(&mut Never, 3);
    let second = resumed.run_until(&mut Never, 4);
    assert_eq!(second.rounds, 7);

    let mut fresh = Engine::new(g, Pull, 5).with_parallelism(Parallelism::Parallel);
    let all = fresh.run_until(&mut Never, 7);
    assert_eq!(all.final_edges, second.final_edges);
    assert_bit_identical(fresh.graph(), resumed.graph(), "resumed vs fresh");
}

/// Sharded-vs-sequential counterpart of [`assert_arena_bit_identical`].
fn assert_sharded_matches_arena(a: &ArenaGraph, b: &ShardedArenaGraph, ctx: &str) {
    assert_eq!(a.m(), b.m(), "{ctx}: edge counts differ");
    for u in a.nodes() {
        assert_eq!(
            a.neighbors(u),
            b.neighbors(u),
            "{ctx}: adjacency differs at {u:?}"
        );
    }
}

#[test]
fn sharded_engine_bit_identical_to_sequential_across_shard_counts() {
    // The sharded round engine's headline contract: for every shard count
    // (and under whatever RAYON_NUM_THREADS this process runs with), the
    // per-round stats and the final rows equal the sequential arena
    // engine's exactly. Sizes straddle the Auto threshold so both the
    // sequential and the pool path of the sharded engine are exercised.
    fn run_ref<R>(g: &ArenaGraph, rule: R) -> (Vec<gossip_core::RoundStats>, ArenaGraph)
    where
        R: gossip_core::ProposalRule<ArenaGraph>,
    {
        let mut e = Engine::new(g.clone(), rule, 99).with_parallelism(Parallelism::Sequential);
        let stats: Vec<_> = (0..6).map(|_| e.step()).collect();
        (stats, e.into_graph())
    }
    fn run_sharded<R>(
        g: ShardedArenaGraph,
        rule: R,
        policy: Parallelism,
    ) -> (Vec<gossip_core::RoundStats>, ShardedArenaGraph)
    where
        R: gossip_core::ProposalRule<ShardedArenaGraph>,
    {
        let mut e = ShardedEngine::new(g, rule, 99).with_parallelism(policy);
        let stats: Vec<_> = (0..6).map(|_| e.step()).collect();
        (stats, e.into_graph())
    }
    fn check_rule<RA, RS>(arena: &ArenaGraph, rule_a: RA, rule_s: RS, rule_name: &str, n: usize)
    where
        RA: gossip_core::ProposalRule<ArenaGraph> + Copy,
        RS: gossip_core::ProposalRule<ShardedArenaGraph> + Copy,
    {
        let (stats_ref, final_ref) = run_ref(arena, rule_a);
        for shards in [1usize, 2, 8] {
            for policy in [Parallelism::Sequential, Parallelism::Parallel] {
                let g = ShardedArenaGraph::from_arena(arena, shards);
                let (stats, final_g) = run_sharded(g, rule_s, policy);
                assert_eq!(
                    stats, stats_ref,
                    "{rule_name} n={n} S={shards} {policy:?}: round stats diverged"
                );
                assert_sharded_matches_arena(
                    &final_ref,
                    &final_g,
                    &format!("{rule_name} n={n} S={shards} {policy:?}"),
                );
                final_g.validate().unwrap();
            }
        }
    }
    let threshold = default_threshold();
    for n in [threshold - 1, threshold + 177] {
        let arena = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(21, 0, 0));
        check_rule(&arena, Push, Push, "push", n);
        check_rule(&arena, Pull, Pull, "pull", n);
    }
}

#[test]
fn sharded_engine_matches_plain_engine_on_sharded_backend() {
    // Cross-check through a third, independent path: the plain Engine
    // driving ShardedArenaGraph via the default one-at-a-time apply. All
    // three implementations must tell the same story.
    let n = default_threshold() + 41;
    let und = generators::tree_plus_random_edges(n, 3 * n as u64, &mut stream_rng(13, 0, 0));
    let g = ShardedArenaGraph::from_arena(&und, 8);
    let mut oracle = Engine::new(g.clone(), Push, 7).with_parallelism(Parallelism::Sequential);
    let mut sharded = ShardedEngine::new(g, Push, 7);
    for round in 0..6 {
        assert_eq!(oracle.step(), sharded.step(), "round {round}");
    }
    for u in oracle.graph().nodes() {
        assert_eq!(
            oracle.graph().neighbors(u),
            sharded.graph().neighbors(u),
            "row {u:?}"
        );
    }
}

#[test]
fn sharded_engine_pool_reuse_across_runs_leaks_no_state() {
    let n = default_threshold() + 100;
    let und = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(7, 0, 0));
    let g = ShardedArenaGraph::from_arena(&und, 8);

    let mut resumed = ShardedEngine::new(g.clone(), Pull, 5);
    resumed.run_until(&mut Never, 3);
    let second = resumed.run_until(&mut Never, 4);
    assert_eq!(second.rounds, 7);

    let mut fresh = ShardedEngine::new(g, Pull, 5);
    let all = fresh.run_until(&mut Never, 7);
    assert_eq!(all.final_edges, second.final_edges);
    for u in fresh.graph().nodes() {
        assert_eq!(fresh.graph().neighbors(u), resumed.graph().neighbors(u));
    }
}

/// A churn plan heavy enough that, combined with push-driven row growth,
/// the run crosses a `SliceArena` epoch-compaction boundary: repeated
/// relocations leave stale copies in the slab while burst leaves release
/// reserved capacity, pushing `data.len()` past the
/// `reserved + reserved/2 + 1024` trigger. The same workload shape is
/// pinned against the compaction internals directly in
/// `gossip-graph`'s arena unit tests; here it stresses determinism
/// *across* the boundary.
fn compaction_straddling_plan(n: usize, seed: u64) -> MembershipPlan {
    MembershipPlan::bursts(&ChurnBursts {
        n,
        nodes_per_burst: 48,
        bursts: 3,
        first_round: 1,
        period: 3,
        rejoin_after: 2,
        bootstrap_contacts: 4,
        seed,
    })
}

#[test]
fn churned_sharded_engine_bit_identical_to_sequential() {
    // The PR's headline churn contract: under the SAME membership plan,
    // every (shard count, scheduling policy) combination of the sharded
    // engine reproduces the sequential arena engine's trajectory
    // bit-for-bit — per-round stats, final rows, and cumulative
    // membership stats all equal — even while leaves tombstone rows and
    // compaction rewrites the slab mid-run.
    let n = 1500;
    let arena = generators::tree_plus_random_edges(n, 3 * n as u64, &mut stream_rng(77, 0, 0));
    let plan = compaction_straddling_plan(n, 0xC4A2);

    let mut seq = Engine::new(arena.clone(), Push, 99)
        .with_parallelism(Parallelism::Sequential)
        .with_membership(plan.clone());
    let stats_ref: Vec<_> = (0..10).map(|_| seq.step()).collect();
    let mem_ref = seq.membership_stats();
    assert!(mem_ref.leaves > 0 && mem_ref.joins > 0, "plan never fired");

    for shards in [1usize, 2, 8] {
        for policy in [Parallelism::Sequential, Parallelism::Parallel] {
            let g = ShardedArenaGraph::from_arena(&arena, shards);
            let mut shd = ShardedEngine::new(g, Push, 99)
                .with_parallelism(policy)
                .with_membership(plan.clone());
            let stats: Vec<_> = (0..10).map(|_| shd.step()).collect();
            assert_eq!(
                stats, stats_ref,
                "S={shards} {policy:?}: churned round stats diverged"
            );
            assert_eq!(
                shd.membership_stats(),
                mem_ref,
                "S={shards} {policy:?}: membership stats diverged"
            );
            assert_sharded_matches_arena(
                seq.graph(),
                shd.graph(),
                &format!("churned S={shards} {policy:?}"),
            );
            shd.graph().validate().unwrap();
        }
    }
}

#[test]
fn churned_plain_engine_on_sharded_backend_agrees() {
    // Third independent oracle: the plain Engine driving ShardedArenaGraph
    // through the default one-at-a-time apply, under the same plan. Pins
    // that membership events land identically regardless of which engine
    // hosts the seam.
    let n = 900;
    let und = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(31, 0, 0));
    let g = ShardedArenaGraph::from_arena(&und, 4);
    let plan = compaction_straddling_plan(n, 0x51DE);

    let mut oracle = Engine::new(g.clone(), Push, 7)
        .with_parallelism(Parallelism::Sequential)
        .with_membership(plan.clone());
    let mut sharded = ShardedEngine::new(g, Push, 7).with_membership(plan);
    for round in 0..9 {
        assert_eq!(oracle.step(), sharded.step(), "round {round}");
    }
    assert_eq!(oracle.membership_stats(), sharded.membership_stats());
    for u in oracle.graph().nodes() {
        assert_eq!(
            oracle.graph().neighbors(u),
            sharded.graph().neighbors(u),
            "row {u:?}"
        );
    }
    sharded.graph().validate().unwrap();
}

#[test]
fn churned_pull_rule_agrees_across_engines() {
    // Pull consults peer rows (two-sided reads), so a departed node's
    // emptied row must be observed identically by both engines' kernels.
    let n = 700;
    let arena = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(5, 0, 0));
    let plan = compaction_straddling_plan(n, 0xA11CE);

    let mut seq = Engine::new(arena.clone(), Pull, 3)
        .with_parallelism(Parallelism::Sequential)
        .with_membership(plan.clone());
    let stats_ref: Vec<_> = (0..9).map(|_| seq.step()).collect();

    let g = ShardedArenaGraph::from_arena(&arena, 8);
    let mut shd = ShardedEngine::new(g, Pull, 3)
        .with_parallelism(Parallelism::Parallel)
        .with_membership(plan);
    let stats: Vec<_> = (0..9).map(|_| shd.step()).collect();
    assert_eq!(stats, stats_ref, "pull under churn diverged");
    assert_sharded_matches_arena(seq.graph(), shd.graph(), "pull under churn");
}

/// Shard counts the transport tests sweep. CI's `transport-determinism`
/// matrix pins one count per leg via `GOSSIP_TEST_SHARDS` (so S and
/// RAYON_NUM_THREADS form an explicit grid); local runs cover both.
fn transport_shard_grid() -> Vec<usize> {
    match std::env::var("GOSSIP_TEST_SHARDS") {
        Ok(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("GOSSIP_TEST_SHARDS: comma-separated shard counts")
            })
            .collect(),
        Err(_) => vec![2, 8],
    }
}

#[test]
fn transport_engine_bit_identical_to_sequential_across_shard_counts() {
    // The serialized path extension of the headline contract: the
    // cross-process transport (thread-hosted workers here — the identical
    // worker loop over the identical wire format, minus exec) must
    // reproduce the sequential arena engine bit-for-bit for every shard
    // count, under whatever RAYON_NUM_THREADS this process runs with.
    // Mailboxes cross a socket as length-prefixed frames and are
    // reassembled in canonical (source, owner, seq) order; nothing about
    // serialization may leak into the result.
    use gossip_core::RuleId;
    use gossip_shard::transport::TransportBuilder;

    let n = default_threshold() + 177;
    let arena = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(21, 0, 0));
    for rule in [RuleId::Push, RuleId::Pull] {
        let (stats_ref, final_ref) = gossip_core::with_rule!(rule, |r| {
            let mut e = Engine::new(arena.clone(), r, 99).with_parallelism(Parallelism::Sequential);
            let stats: Vec<_> = (0..6).map(|_| e.step()).collect();
            (stats, e.into_graph())
        });
        for shards in transport_shard_grid() {
            for policy in [Parallelism::Sequential, Parallelism::Parallel] {
                let g = ShardedArenaGraph::from_arena(&arena, shards);
                let mut wire = TransportBuilder::new(g, rule, 99)
                    .with_parallelism(policy)
                    .spawn()
                    .expect("spawn transport workers");
                let stats: Vec<_> = (0..6).map(|_| wire.step()).collect();
                assert_eq!(
                    stats, stats_ref,
                    "{rule} S={shards} {policy:?}: stats diverged over the wire"
                );
                assert_sharded_matches_arena(
                    &final_ref,
                    wire.graph(),
                    &format!("{rule} S={shards} {policy:?} over the wire"),
                );
                wire.graph().validate().unwrap();
                wire.shutdown().unwrap();
            }
        }
    }
}

#[test]
fn churned_transport_engine_bit_identical_to_sequential() {
    // Churn over the serialized path: the membership schedule ships once
    // in the bootstrap Config frame and replays locally on every worker,
    // so a compaction-straddling plan must leave the transport engine
    // bit-identical to the sequential engine — rounds, rows, and zero
    // per-round membership wire traffic.
    use gossip_core::RuleId;
    use gossip_shard::transport::TransportBuilder;

    let n = 1500;
    let arena = generators::tree_plus_random_edges(n, 3 * n as u64, &mut stream_rng(77, 0, 0));
    let plan = compaction_straddling_plan(n, 0xC4A2);

    let mut seq = Engine::new(arena.clone(), Push, 99)
        .with_parallelism(Parallelism::Sequential)
        .with_membership(plan.clone());
    let stats_ref: Vec<_> = (0..10).map(|_| seq.step()).collect();

    for shards in transport_shard_grid() {
        let g = ShardedArenaGraph::from_arena(&arena, shards);
        let mut wire = TransportBuilder::new(g, RuleId::Push, 99)
            .with_membership(plan.clone())
            .spawn()
            .expect("spawn transport workers");
        let stats: Vec<_> = (0..10).map(|_| wire.step()).collect();
        assert_eq!(stats, stats_ref, "S={shards}: churned wire stats diverged");
        assert_sharded_matches_arena(
            seq.graph(),
            wire.graph(),
            &format!("churned S={shards} over the wire"),
        );
        wire.graph().validate().unwrap();
        wire.shutdown().unwrap();
    }
}

#[test]
fn cluster_datagram_transport_is_bit_identical_across_loss_rates() {
    // The datagram cluster's centerpiece pin: a two-"host" loopback grid
    // (shards 0–1 on 127.0.0.1, shards 2–3 on 127.0.0.2, explicit static
    // peer table) must replay the sequential engine bit-for-bit at every
    // seeded loss rate — drop rates of 0%, 5%, and 20% all repair to the
    // same trajectory and the same adjacency rows.
    //
    // Default n = 2^12; GOSSIP_CLUSTER_BIG=1 raises it to 2^17 for the
    // release-mode CI leg.
    use gossip_cluster::{ClusterBuilder, DatagramLoss};
    use gossip_core::RuleId;

    let n: usize = if std::env::var("GOSSIP_CLUSTER_BIG").is_ok() {
        1 << 17
    } else {
        1 << 12
    };
    let rounds = 5u64;
    let arena = generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(12, 0, 0));
    let mut seq =
        Engine::new(arena.clone(), Pull, 20260807).with_parallelism(Parallelism::Sequential);
    let stats_ref: Vec<_> = (0..rounds).map(|_| seq.step()).collect();

    // Second loopback host; fall back to single-host on platforms that
    // only bind 127.0.0.1.
    let host_b = if std::net::UdpSocket::bind("127.0.0.2:0").is_ok() {
        "127.0.0.2"
    } else {
        "127.0.0.1"
    };
    // Probe-bind to reserve a concrete port, release it for the builder.
    let reserve = |host: &str| {
        let s = std::net::UdpSocket::bind(format!("{host}:0")).expect("reserve port");
        s.local_addr().unwrap()
    };

    for drop_per_mille in [0u16, 50, 200] {
        let g = ShardedArenaGraph::from_arena(&arena, 4);
        let mut b = ClusterBuilder::new(g, RuleId::Pull, 20260807)
            .with_bind("127.0.0.1:0".parse().unwrap())
            .with_peers(vec![reserve("127.0.0.1"), reserve(host_b), reserve(host_b)]);
        if drop_per_mille > 0 {
            b = b.with_loss(DatagramLoss {
                seed: 0xC1_05 ^ drop_per_mille as u64,
                drop_per_mille,
                dup_per_mille: drop_per_mille / 2,
            });
        }
        let mut cluster = b.spawn().expect("spawn cluster");
        let stats: Vec<_> = (0..rounds).map(|_| cluster.step()).collect();
        assert_eq!(
            stats, stats_ref,
            "drop={drop_per_mille}‰: cluster stats diverged from sequential"
        );
        assert_sharded_matches_arena(
            seq.graph(),
            cluster.graph(),
            &format!("cluster at drop={drop_per_mille}‰"),
        );
        let cs = cluster.stats();
        if drop_per_mille > 0 {
            assert!(
                cs.endpoint.injected_drops > 0,
                "drop={drop_per_mille}‰ never injected: {cs:?}"
            );
        } else {
            assert_eq!(cs.endpoint.injected_drops, 0);
        }
        cluster.graph().validate().unwrap();
        cluster.shutdown().unwrap();
    }
}

#[test]
fn trial_batches_agree_under_pool_parallelism() {
    // Trial-level fan-out (the imbalanced workload the chunk-claiming pool
    // exists for) must return identical per-trial results either way.
    use gossip_core::{convergence_rounds, TrialConfig};
    let g = generators::star(96);
    let mut cfg = TrialConfig {
        trials: 12,
        base_seed: 31,
        max_rounds: 10_000_000,
        parallel: false,
    };
    let seq = convergence_rounds(&g, Push, ComponentwiseComplete::for_graph, &cfg);
    cfg.parallel = true;
    let par = convergence_rounds(&g, Push, ComponentwiseComplete::for_graph, &cfg);
    assert_eq!(seq, par);
}
