//! Snapshot consistency: what a live service publishes is exactly what a
//! batch run would have produced.
//!
//! Three pins, per the serving contract:
//!
//! 1. A snapshot taken between rounds `k` and `k+1` is bit-identical to a
//!    **sequential** engine over the same start graph stopped at round `k`
//!    — for shard counts S ∈ {1, 2, 8}.
//! 2. That equivalence holds under concurrent query load: reader threads
//!    hammering the snapshot surface observe only exact round-`k` states,
//!    never a torn or mid-round view.
//! 3. A served engine's full trajectory is bit-identical to the same
//!    configuration run in batch, round by round as well as in its final
//!    graph — serving is observation, not perturbation.

use gossip_core::rng::stream_rng;
use gossip_core::{run_engine_listened, Engine, EngineBuilder, Parallelism, Pull, RoundRecorder};
use gossip_graph::{generators, ArenaGraph, NodeId, ShardedArenaGraph, UniformNeighbors};
use gossip_serve::{GossipService, ServeConfig, Snapshot};
use gossip_shard::{BuildSharded, ShardedEngine};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const N: usize = 3000; // deliberately not chunk-aligned
const SEED: u64 = 77;

fn start_graphs(shards: usize) -> (ArenaGraph, ShardedArenaGraph) {
    let arena = generators::tree_plus_random_edges(N, 2 * N as u64, &mut stream_rng(4, 0, 0));
    let sharded = ShardedArenaGraph::from_arena(&arena, shards);
    (arena, sharded)
}

/// Asserts `snap` is exactly the reference sequential engine's graph at
/// `snap.round` (the reference must already be stepped there).
fn assert_rows_equal(snap: &Snapshot<ShardedArenaGraph>, reference: &ArenaGraph, ctx: &str) {
    assert_eq!(snap.edge_count(), reference.m(), "{ctx}: edge count");
    for u in reference.nodes() {
        assert_eq!(
            reference.neighbors(u),
            snap.neighbors(u),
            "{ctx}: row {u:?}"
        );
    }
}

/// Pin 1: every round boundary, every shard count, deterministically.
#[test]
fn snapshot_at_round_k_matches_sequential_engine_stopped_at_k() {
    for shards in [1usize, 2, 8] {
        let (arena, sharded) = start_graphs(shards);
        let mut reference =
            Engine::new(arena, Pull, SEED).with_parallelism(Parallelism::Sequential);
        for k in 0..6u64 {
            let engine = EngineBuilder::new(sharded.clone(), Pull, SEED).build_sharded();
            let svc = GossipService::spawn(
                engine,
                ServeConfig {
                    snapshot_every: 1,
                    budget: k,
                },
            );
            let handle = svc.handle();
            let (_, out) = svc.join();
            assert_eq!(out.rounds, k);
            let snap = handle.snapshot();
            assert_eq!(snap.round, k);
            while reference.round() < k {
                reference.step();
            }
            assert_rows_equal(&snap, reference.graph(), &format!("S={shards} k={k}"));
        }
    }
}

/// Pin 2: the same equivalence under concurrent query load. Readers
/// collect every epoch they can catch while the engine runs free; each
/// caught snapshot must be an exact round state.
#[test]
fn concurrent_readers_only_ever_see_exact_round_states() {
    const BUDGET: u64 = 10;
    for shards in [2usize, 8] {
        let (arena, sharded) = start_graphs(shards);
        let engine = EngineBuilder::new(sharded, Pull, SEED).build_sharded();
        let svc = GossipService::spawn(
            engine,
            ServeConfig {
                snapshot_every: 1,
                budget: BUDGET,
            },
        );
        let caught: Arc<Mutex<BTreeMap<u64, Arc<Snapshot<ShardedArenaGraph>>>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        let mut readers = Vec::new();
        for r in 0..3 {
            let h = svc.handle();
            let caught = caught.clone();
            readers.push(std::thread::spawn(move || {
                let mut polls = 0u64;
                loop {
                    let snap = h.snapshot();
                    // Query load: aggregate stats plus point reads.
                    let stats = snap.stats();
                    assert_eq!(stats.nodes, N);
                    let u = NodeId::new((polls as usize * 131 + r * 17) % N);
                    let nbrs = snap.neighbors(u);
                    assert_eq!(nbrs.len(), snap.degree(u));
                    for &v in nbrs.iter().take(4) {
                        assert!(snap.knows(u, v));
                    }
                    let done = snap.round >= BUDGET;
                    caught.lock().unwrap().entry(snap.epoch).or_insert(snap);
                    polls += 1;
                    if done {
                        break;
                    }
                    std::thread::yield_now();
                }
            }));
        }
        let (engine, out) = svc.join();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(out.rounds, BUDGET);
        let caught = caught.lock().unwrap();
        // Final epoch is always caught (readers exit only once they see it).
        assert!(caught.values().any(|s| s.round == BUDGET));
        let mut reference =
            Engine::new(arena, Pull, SEED).with_parallelism(Parallelism::Sequential);
        for snap in caught.values() {
            while reference.round() < snap.round {
                reference.step();
            }
            assert_eq!(
                reference.round(),
                snap.round,
                "snapshot at a non-round state"
            );
            assert_rows_equal(
                snap,
                reference.graph(),
                &format!("S={shards} epoch={} round={}", snap.epoch, snap.round),
            );
        }
        // And the returned engine agrees with the last published epoch.
        assert_eq!(
            engine.graph().m(),
            caught.values().last().unwrap().edge_count()
        );
    }
}

/// Pin 3: serving does not perturb the trajectory — a served run's rows
/// (stats, edge count, a probe of two degrees) equal the same engine's
/// batch rows round by round, and its final graph is bit-identical. On
/// both fan-outs, and with a snapshot every round and every third, so the
/// rounds that rebuild a snapshot-shared segment alternate with rounds
/// that merge in place.
#[test]
fn served_trajectory_is_bit_identical_to_batch() {
    const BUDGET: u64 = 8;
    let (_, sharded) = start_graphs(4);
    let recorder = || {
        RoundRecorder::probing(|g: &ShardedArenaGraph| {
            [0, N - 1]
                .map(|u| g.neighbor_row(NodeId::new(u)).len() as u64)
                .to_vec()
        })
    };
    let runs = [
        (Parallelism::default(), 3), // every 3: deliberately not a divisor of the budget
        (Parallelism::Parallel, 1),
        (Parallelism::Parallel, 3),
    ];
    for (parallelism, snapshot_every) in runs {
        let ctx = format!("{parallelism:?}, a snapshot every {snapshot_every}");
        let mut batch =
            ShardedEngine::new(sharded.clone(), Pull, SEED).with_parallelism(parallelism);
        let batch_rows = recorder();
        let Ok(_) = run_engine_listened(&mut batch, &mut batch_rows.clone(), BUDGET);

        let served_rows = recorder();
        let engine = EngineBuilder::new(sharded.clone(), Pull, SEED)
            .parallelism(parallelism)
            .build_sharded();
        let svc = GossipService::spawn_with(
            engine,
            ServeConfig {
                snapshot_every,
                budget: BUDGET,
            },
            served_rows.clone(),
        );
        let handle = svc.handle();
        let (served, out) = svc.join();
        assert_eq!(out.rounds, BUDGET, "{ctx}");

        let (batch_rows, served_rows) = (batch_rows.rows(), served_rows.rows());
        assert_eq!(batch_rows.len() as u64, BUDGET, "{ctx}");
        for (b, s) in batch_rows.iter().zip(&served_rows) {
            assert_eq!(b, s, "{ctx}: round {}", b.round);
        }
        assert_eq!(batch_rows, served_rows, "{ctx}");

        assert_eq!(served.graph().m(), batch.graph().m(), "{ctx}");
        for u in batch.graph().nodes() {
            assert_eq!(
                batch.graph().neighbors(u),
                served.graph().neighbors(u),
                "{ctx}: row {u:?}"
            );
        }
        served.graph().validate().unwrap();
        // The final published snapshot equals the engine state even where
        // the cadence never landed on round 8 naturally.
        let snap = handle.snapshot();
        assert_eq!(snap.round, BUDGET, "{ctx}");
        assert_eq!(snap.edge_count(), served.graph().m(), "{ctx}");
    }
}
