//! Process-mode cluster transport tests.
//!
//! `harness = false`: process-mode workers re-exec the current
//! executable, and the default libtest harness would re-run the whole
//! test suite in each child. A plain `main` lets
//! [`gossip_cluster::maybe_run_cluster_shard`] intercept worker
//! re-execs before any test code runs.

use gossip_cluster::{ClusterBuilder, DatagramLoss};
use gossip_core::rng::stream_rng;
use gossip_core::{Pull, Push, RuleId};
use gossip_graph::{generators, NodeId, ShardedArenaGraph};
use gossip_shard::{ShardedEngine, TransportMode};
use std::net::SocketAddr;

fn sharded(n: usize, extra: u64, seed: u64, shards: usize) -> ShardedArenaGraph {
    let und = generators::tree_plus_random_edges(n, extra, &mut stream_rng(seed, 0, 0));
    ShardedArenaGraph::from_arena(&und, shards)
}

fn assert_graphs_equal(a: &ShardedArenaGraph, b: &ShardedArenaGraph, what: &str) {
    assert_eq!(a.m(), b.m(), "{what}: edge count diverged");
    for u in a.nodes() {
        assert_eq!(a.neighbors(u), b.neighbors(u), "{what}: row {u:?} diverged");
    }
}

/// Two worker processes (plus the in-process coordinator) track the
/// sequential engine bit-for-bit over real UDP sockets.
fn process_cluster_matches_in_process_engine() {
    let n = 4000;
    let g = sharded(n, 2 * n as u64, 17, 3);
    let mut inproc = ShardedEngine::new(g.clone(), Pull, 23);
    let mut cluster = ClusterBuilder::new(g, RuleId::Pull, 23)
        .with_mode(TransportMode::Process)
        .spawn()
        .expect("spawn process cluster");
    for round in 0..5 {
        assert_eq!(inproc.step(), cluster.step(), "round {round}");
    }
    assert_graphs_equal(inproc.graph(), cluster.graph(), "process cluster");
    cluster.graph().validate().unwrap();
    cluster.shutdown().expect("clean shutdown");
    println!("  ok: process_cluster_matches_in_process_engine");
}

/// Seeded datagram loss across real process boundaries: the windows
/// repair every drop and the result stays bit-identical.
fn lossy_process_cluster_recovers() {
    let n = 2500;
    let g = sharded(n, n as u64, 29, 2);
    let mut inproc = ShardedEngine::new(g.clone(), Push, 31);
    let mut cluster = ClusterBuilder::new(g, RuleId::Push, 31)
        .with_mode(TransportMode::Process)
        .with_loss(DatagramLoss {
            seed: 0xD06,
            drop_per_mille: 80,
            dup_per_mille: 40,
        })
        .spawn()
        .expect("spawn lossy process cluster");
    for round in 0..4 {
        assert_eq!(inproc.step(), cluster.step(), "round {round}");
    }
    assert_graphs_equal(inproc.graph(), cluster.graph(), "lossy process cluster");
    let stats = cluster.stats();
    assert!(
        stats.endpoint.injected_drops > 0,
        "loss shim never fired: {stats:?}"
    );
    cluster.shutdown().expect("clean shutdown");
    println!("  ok: lossy_process_cluster_recovers");
}

/// The E20 topology in miniature: shards 0–1 on 127.0.0.1 and shards
/// 2–3 on 127.0.0.2 (two loopback "hosts", two shard processes each),
/// via an explicit static peer table.
fn two_host_loopback_grid_is_bit_identical() {
    let host_b_works = std::net::UdpSocket::bind("127.0.0.2:0").is_ok();
    let host_b = if host_b_works {
        "127.0.0.2"
    } else {
        "127.0.0.1"
    };

    let n = 3000;
    let g = sharded(n, n as u64, 41, 4);
    let mut inproc = ShardedEngine::new(g.clone(), Pull, 43);

    // Reserve three concrete worker ports across the two "hosts"
    // (shard 1 shares host A with the coordinator).
    let reserve = |host: &str| -> SocketAddr {
        let s = std::net::UdpSocket::bind(format!("{host}:0")).expect("reserve port");
        let addr = s.local_addr().unwrap();
        drop(s);
        addr
    };
    let peers = vec![reserve("127.0.0.1"), reserve(host_b), reserve(host_b)];
    let mut cluster = ClusterBuilder::new(g, RuleId::Pull, 43)
        .with_mode(TransportMode::Process)
        .with_bind("127.0.0.1:0".parse().unwrap())
        .with_peers(peers.clone())
        .spawn()
        .expect("spawn two-host grid");
    assert_eq!(&cluster.peer_table()[1..], peers.as_slice());
    for round in 0..4 {
        assert_eq!(inproc.step(), cluster.step(), "round {round}");
    }
    assert_graphs_equal(inproc.graph(), cluster.graph(), "two-host grid");
    cluster.shutdown().expect("clean shutdown");
    println!("  ok: two_host_loopback_grid_is_bit_identical (host B = {host_b})");
}

/// A smoke query after convergence, proving the engine+graph stay
/// usable after `shutdown`.
fn converged_cluster_answers_queries() {
    let und = generators::star(512);
    let g = ShardedArenaGraph::from_arena(&und, 2);
    let mut check = gossip_core::ComponentwiseComplete::for_graph(&und);
    let mut cluster = ClusterBuilder::new(g, RuleId::Push, 47)
        .with_mode(TransportMode::Process)
        .spawn()
        .expect("spawn");
    let out = cluster.run_until(&mut check, 1_000_000);
    assert!(out.converged);
    cluster.shutdown().expect("clean shutdown");
    assert!(cluster.graph().is_complete());
    assert!(cluster.graph().neighbors(NodeId(0)).contains(&NodeId(511)));
    println!("  ok: converged_cluster_answers_queries");
}

/// A worker handed an MTU that is not a positive integer refuses to start
/// (exit 2, like a bad shard, peer table or loss spec) instead of
/// guessing a budget its coordinator does not share or panicking.
fn worker_rejects_a_bad_mtu() {
    for bad in ["0", "jumbo"] {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .env(gossip_cluster::CLUSTER_SHARD_ENV, "1")
            .env(gossip_cluster::CLUSTER_PEERS_ENV, "127.0.0.1:1,127.0.0.1:1")
            .env(gossip_cluster::CLUSTER_MTU_ENV, bad)
            .output()
            .expect("re-exec as a worker");
        assert_eq!(out.status.code(), Some(2), "mtu {bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bad GOSSIP_CLUSTER_MTU={bad}")),
            "mtu {bad:?}: {stderr}"
        );
    }
    println!("  ok: worker_rejects_a_bad_mtu");
}

/// A loss spec is exactly `seed:drop:dup`, each field in its own type's
/// range: a rate past `u16` (which would wrap to another rate), a missing
/// field and an extra one all make the worker exit 2.
fn worker_rejects_a_bad_loss_spec() {
    for bad in ["7:65586:0", "7:50", "7:50:30:1"] {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .env(gossip_cluster::CLUSTER_SHARD_ENV, "1")
            .env(gossip_cluster::CLUSTER_PEERS_ENV, "127.0.0.1:1,127.0.0.1:1")
            .env(gossip_cluster::CLUSTER_LOSS_ENV, bad)
            .output()
            .expect("re-exec as a worker");
        assert_eq!(out.status.code(), Some(2), "loss {bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bad GOSSIP_CLUSTER_LOSS={bad}")),
            "loss {bad:?}: {stderr}"
        );
    }
    println!("  ok: worker_rejects_a_bad_loss_spec");
}

fn main() {
    // Worker re-execs enter here and never return.
    gossip_cluster::maybe_run_cluster_shard();

    println!("udp_process: process-mode cluster transport");
    process_cluster_matches_in_process_engine();
    lossy_process_cluster_recovers();
    two_host_loopback_grid_is_bit_identical();
    converged_cluster_answers_queries();
    worker_rejects_a_bad_mtu();
    worker_rejects_a_bad_loss_spec();
    println!("udp_process: all tests passed");
}
