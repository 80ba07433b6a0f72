//! Tier-1 smoke guard: the crate-root quickstart, as a plain integration
//! test. Doctests can silently stop running when rustdoc config changes;
//! this keeps the ten-line tour of `src/lib.rs` under the ordinary test
//! harness no matter what.

use discovery_gossip::prelude::*;

#[test]
fn quickstart_push_completes_a_32_node_star() {
    let g0 = generators::star(32);
    let mut check = ComponentwiseComplete::for_graph(&g0);
    let mut engine = Engine::new(g0, Push, 7);
    let out = engine.run_until(&mut check, 1_000_000);
    assert!(out.converged, "push failed to converge within 1M rounds");
    assert!(
        engine.graph().is_complete(),
        "converged but graph incomplete"
    );
}

/// The README's million-node snippet, shrunk to test scale: the arena
/// backend drives the same engine through the same prelude, in O(m + n)
/// memory (the full 2^20 run is exercised by `run_all --only E15 --quick` in CI).
#[test]
fn quickstart_arena_backend_runs_the_same_engine() {
    let n: u32 = 1 << 12;
    let g0 = ArenaGraph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1)));
    let mut engine = Engine::new(g0, Pull, 7);
    engine.run_until(&mut Never, 4);
    assert!(engine.graph().m() > (n as u64) - 1, "no edges discovered");
    assert!(
        engine.graph().memory_bytes() < (n as usize) * (n as usize) / 8 / 2,
        "arena backend lost its memory advantage"
    );
}

/// The README's sharded-engine snippet, verbatim: the multi-shard engine
/// drives the same process through the same prelude (the full 2^22 run is
/// exercised by `run_all --only E16 --quick` in CI).
#[test]
fn quickstart_sharded_engine_runs_the_same_process() {
    let und = generators::star(64);
    let g0 = ShardedArenaGraph::from_arena(&und, 8);
    let mut check = ComponentwiseComplete::for_graph(&und);
    let mut engine = ShardedEngine::new(g0, Pull, 7);
    let Ok(out) = run_engine_until(&mut engine, &mut check, 1_000_000);
    assert!(out.converged);
    assert!(engine.graph().is_complete());
}

/// The README's churn snippet, verbatim: a burst schedule attached through
/// the membership lifecycle seam, leaves and rejoins applied between
/// rounds (the full 2^22 run is `run_all --only E18` in CI).
#[test]
fn quickstart_churn_applies_membership_bursts() {
    let und = generators::star(256);
    let plan = MembershipPlan::bursts(&ChurnBursts {
        n: 256,
        nodes_per_burst: 16,
        bursts: 2,
        first_round: 1,
        period: 4,
        rejoin_after: 2,
        bootstrap_contacts: 3,
        seed: 7,
    });
    let g0 = ShardedArenaGraph::from_arena(&und, 8);
    let mut engine = ShardedEngine::new(g0, Pull, 7).with_membership(plan);
    let Ok(_) = run_engine_until(&mut engine, &mut Never, 12);
    assert_eq!(engine.membership_stats().leaves, 32);
}

/// The README's transport snippet, verbatim: the sharded round across a
/// serialized seam — thread-hosted shard workers exchanging framed
/// mailboxes over Unix-domain socketpairs (process mode and the 10^7 run
/// are `run_all --only E19` in CI; libtest harnesses must not re-exec).
#[test]
fn quickstart_transport_runs_shard_workers_over_framed_sockets() {
    let und = generators::star(512);
    let mut engine = TransportBuilder::new(ShardedArenaGraph::from_arena(&und, 4), RuleId::Pull, 7)
        .with_mode(TransportMode::Thread)
        .spawn()
        .unwrap();
    run_engine_until(&mut engine, &mut Never, 6).unwrap();
    let stats = engine.stats().clone();
    assert!(stats.wire.frames_sent > 0 && stats.wire.bytes_received > 0);
    engine.shutdown().unwrap();
    assert!(engine.graph().m() > 511);
}

/// The README's cluster snippet, verbatim: the sharded round peer-to-peer
/// over UDP — thread-hosted shard peers on real datagram sockets resolved
/// from an auto-reserved loopback peer table, seeded drop/duplication
/// repaired by the ack/timeout/backoff windows (process mode, the
/// two-host grid, and the 2^20 run are `run_all --only E20` in CI; libtest
/// harnesses must not re-exec).
#[test]
fn quickstart_cluster_runs_shard_peers_over_udp() {
    let und = generators::star(512);
    let mut engine = ClusterBuilder::new(ShardedArenaGraph::from_arena(&und, 4), RuleId::Pull, 7)
        .with_loss(DatagramLoss {
            seed: 9,
            drop_per_mille: 100,
            dup_per_mille: 50,
        })
        .spawn()
        .unwrap();
    run_engine_until(&mut engine, &mut Never, 6).unwrap();
    let stats = engine.stats();
    assert!(stats.endpoint.injected_drops > 0 && stats.endpoint.retransmitted > 0);
    engine.shutdown().unwrap();
    assert!(engine.graph().m() > 511);
}

/// The README's serving snippet, verbatim: any engine behind the resident
/// service, queried live through epoch snapshots, engine returned on join
/// (the full 2^20 run under concurrent query load is `run_all --only E17` in CI).
#[test]
fn quickstart_serve_queries_a_live_engine() {
    let und = generators::star(64);
    let engine =
        EngineBuilder::new(ShardedArenaGraph::from_arena(&und, 8), Pull, 7).build_sharded();
    let svc = GossipService::spawn(
        engine,
        ServeConfig {
            snapshot_every: 4,
            budget: 32,
        },
    );
    let snap = svc.handle().snapshot();
    assert!(snap.stats().coverage <= 1.0);
    let (engine, out) = svc.join();
    assert_eq!(out.rounds, 32);
    assert!(engine.graph().m() >= snap.edge_count());
}
