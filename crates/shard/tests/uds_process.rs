//! Process-mode transport integration test (`harness = false`).
//!
//! [`TransportMode::Process`] re-execs the *current binary* for each shard
//! worker, so it cannot run under the default libtest harness — a re-execed
//! test harness would run the whole suite instead of a worker. This test
//! has a hand-rolled `main` whose first statement is
//! [`gossip_shard::maybe_run_worker`]: the supervisor copy falls through
//! and runs the assertions; every worker copy connects to its socket, runs
//! the shard loop, and exits before any test code executes.

use gossip_core::rng::stream_rng;
use gossip_core::RuleId;
use gossip_graph::{generators, ShardedArenaGraph};
use gossip_shard::transport::{TransportBuilder, TransportMode};
use gossip_shard::ShardedEngine;

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

/// The process transport is bit-identical to the in-process
/// sharded engine, per round and in the final rows.
fn process_transport_matches_in_process_engine() {
    let n = 3000;
    for shards in [2, 4] {
        let g = sharded(n, 2 * n as u64, 17, shards);
        let mut inproc = ShardedEngine::new(g.clone(), gossip_core::Pull, 99);
        let mut wire = TransportBuilder::new(g, RuleId::Pull, 99)
            .with_mode(TransportMode::Process)
            .spawn()
            .expect("spawn process workers");
        for round in 0..5 {
            assert_eq!(
                inproc.step(),
                wire.try_step(None).unwrap(),
                "S={shards} round={round}: stats diverged across processes"
            );
        }
        assert_graphs_equal(inproc.graph(), wire.graph(), "process transport");
        wire.graph().validate().unwrap();
        // Real child processes report their own peak RSS.
        assert!(
            wire.stats().worker_peak_rss_bytes.iter().all(|&b| b > 0),
            "worker RSS missing: {:?}",
            wire.stats().worker_peak_rss_bytes
        );
        wire.shutdown().expect("clean worker exit");
        println!("  process transport S={shards}: ok");
    }
}

fn main() {
    // A re-execed copy of this binary is a shard worker, not a test run.
    gossip_shard::maybe_run_worker();

    println!("uds_process: process-mode transport tests");
    process_transport_matches_in_process_engine();
    println!("uds_process: all tests passed");
}
