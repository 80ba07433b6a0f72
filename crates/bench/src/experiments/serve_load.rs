//! E17 — the serving surface under load: a live engine behind epoch
//! snapshots, measured.
//!
//! The batch experiments (E15/E16) established that the engines scale;
//! this experiment establishes that they can be *served* — rounds
//! advancing continuously on a worker thread while reader threads sustain
//! a query mix (aggregate stats + point adjacency reads) against published
//! snapshots — without perturbing the trajectory or paying O(m) per
//! snapshot.
//!
//! Two claims, both asserted and recorded:
//!
//! 1. **Serving is observation, not perturbation**: the served run's
//!    per-round rows (stats and edge count) and final row checksum equal a
//!    batch run of the same `(graph, rule, seed)`, with readers hammering
//!    the snapshot surface the whole time.
//! 2. **Snapshot acquisition is O(S), not O(m)**: a fresh clone of the
//!    served engine's final graph shares all `S` copy-on-write segments
//!    with it — the O(S) mechanism.
//!
//! Query and publish latency under load are the benchmark ledger's
//! `serve-query` workload.

use crate::experiments::shard::{fixed_horizon, row_checksum, sparse_sharded, FixedHorizon};
use crate::harness::{Args, Report};
use gossip_analysis::Table;
use gossip_core::{EngineBuilder, Pull, RoundRecorder};
use gossip_graph::{NodeId, ShardedArenaGraph};
use gossip_serve::{GossipService, ServeConfig};
use gossip_shard::{BuildSharded, ShardedEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SHARDS: usize = 8;
const READERS: usize = 2;

/// One reader thread's share of the query mix: grab the current snapshot,
/// do a handful of point reads plus a periodic aggregate pass, repeat
/// until `done` — at least once. Returns the number of queries answered.
fn query_load(
    handle: gossip_serve::ServiceHandle<ShardedArenaGraph>,
    done: Arc<AtomicBool>,
    reader: usize,
) -> u64 {
    let mut queries = 0u64;
    let mut i = 0u64;
    loop {
        let snap = handle.snapshot();
        let n = snap.node_count();
        // Point reads: who-knows-whom and membership.
        for k in 0..16u64 {
            let u = NodeId::new(((i * 131 + k * 31 + reader as u64 * 17) % n as u64) as usize);
            let nbrs = snap.neighbors(u);
            assert_eq!(nbrs.len(), snap.degree(u));
            if let Some(&v) = nbrs.first() {
                assert!(snap.knows(u, v));
            }
            queries += 2; // one adjacency-list read, one membership probe
        }
        // Periodic aggregate: degree/coverage/convergence stats.
        if i.is_multiple_of(64) {
            let stats = snap.stats();
            assert!(stats.coverage <= 1.0 + f64::EPSILON);
            queries += 1;
        }
        i += 1;
        if done.load(Ordering::Acquire) {
            return queries;
        }
        std::thread::yield_now();
    }
}

struct ServeRun {
    run: FixedHorizon,
    queries: u64,
    epochs: u64,
    /// Whether a fresh clone of the final graph shares every segment.
    shares_all_segments: bool,
}

/// The measured configuration: serve `horizon` rounds with `READERS`
/// query threads live the whole time.
fn serve_under_load(g: ShardedArenaGraph, seed: u64, horizon: u64) -> ServeRun {
    let rec = RoundRecorder::new();
    let engine = EngineBuilder::new(g, Pull, seed).build_sharded();
    let svc = GossipService::spawn_with(
        engine,
        ServeConfig {
            snapshot_every: 1,
            budget: horizon,
        },
        rec.clone(),
    );
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let handle = svc.handle();
            let done = done.clone();
            std::thread::spawn(move || query_load(handle, done, r))
        })
        .collect();
    let (engine, out) = svc.join();
    done.store(true, Ordering::Release);
    let queries: u64 = readers
        .into_iter()
        .map(|h| h.join().expect("reader thread panicked"))
        .sum();
    let g = engine.graph();
    ServeRun {
        run: FixedHorizon {
            rows: rec.rows(),
            checksum: row_checksum(g),
        },
        queries,
        epochs: out.epochs,
        shares_all_segments: fresh_clone_shares_all_segments(g),
    }
}

/// Whether a fresh clone of `g` — what the publisher hands readers each
/// epoch — shares every copy-on-write segment with it.
fn fresh_clone_shares_all_segments(g: &ShardedArenaGraph) -> bool {
    let snap = g.clone();
    (0..g.shard_count()).all(|s| g.shares_segment(&snap, s))
}

/// E17.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E17-serve-load");
    let sizes: Vec<usize> = if args.quick {
        vec![1 << 14]
    } else {
        vec![1 << 17, 1 << 20] // 2^20 is the acceptance row
    };
    let horizon_of = |n: usize| -> u64 {
        match (n, args.quick) {
            (_, true) => 4,
            (n, false) if n >= 1 << 20 => 6,
            _ => 10,
        }
    };

    let mut table = Table::new(["n", "S", "rounds", "epochs", "edges added"]);

    for &n in &sizes {
        let horizon = horizon_of(n);
        let g = sparse_sharded(n, 2 * n as u64, args.seed, SHARDS);

        let batch = fixed_horizon(
            &mut ShardedEngine::new(g.clone(), Pull, args.seed ^ 0x5EF7),
            horizon,
        );
        let served = serve_under_load(g, args.seed ^ 0x5EF7, horizon);

        // Claim 1: serving is observation, not perturbation.
        let matches = served.run == batch;
        assert!(
            matches,
            "served trajectory diverged from batch at n={n}: \
             served m={} batch m={}",
            served.run.final_m(),
            batch.final_m()
        );
        assert!(served.queries > 0, "readers answered no query at n={n}");
        report.measure_scalar(
            "served_matches_batch",
            "pull",
            format!("shards-{SHARDS}"),
            n as u64,
            matches as u64 as f64,
        );
        let added = served.run.added();
        report.measure_scalar(
            "edges_added",
            "pull",
            format!("shards-{SHARDS}"),
            n as u64,
            added as f64,
        );

        // Claim 2: snapshots are O(S).
        assert!(
            served.shares_all_segments,
            "fresh clone must share all segments at n={n}"
        );
        report.measure_scalar(
            "snapshot_shares_all_segments",
            "sharded-arena",
            format!("shards-{SHARDS}"),
            n as u64,
            served.shares_all_segments as u64 as f64,
        );
        table.push_row([
            n.to_string(),
            SHARDS.to_string(),
            horizon.to_string(),
            served.epochs.to_string(),
            added.to_string(),
        ]);
    }

    report.note(format!(
        "a live sharded engine served {READERS} concurrent readers a sustained \
         who-knows-whom / membership / coverage query mix from epoch snapshots while \
         advancing rounds; trajectories stayed bit-identical to batch runs, and \
         snapshot acquisition is an O(S) copy-on-write clone (all segments shared \
         on publish), not an O(m) deep copy. Sizes: {}.",
        if args.quick {
            "quick (2^14)"
        } else {
            "full (2^17, 2^20)"
        }
    ));
    report.table("serving under load (pull, S = 8)", table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_reference_is_deterministic() {
        // E17's batch side: `fixed_horizon` on its own sharded engine.
        let g = sparse_sharded(2048, 4096, 7, SHARDS);
        let batch = || fixed_horizon(&mut ShardedEngine::new(g.clone(), Pull, 7), 4);
        let a = batch();
        assert_eq!(batch(), a);
        assert_eq!(a.rows.len(), 4);
        assert!(a.rows.windows(2).all(|w| w[0].m <= w[1].m));
    }

    #[test]
    fn serve_under_load_matches_batch_at_test_scale() {
        let n = 4096;
        let g = sparse_sharded(n, 2 * n as u64, 11, SHARDS);
        let reference = fixed_horizon(&mut ShardedEngine::new(g.clone(), Pull, 11), 3);
        assert_eq!(reference.rows.len(), 3);
        // The served run replays the batch run row for row.
        let served = serve_under_load(g, 11, 3);
        for (s, b) in served.run.rows.iter().zip(&reference.rows) {
            assert_eq!(s, b, "round {}", b.round);
        }
        assert_eq!(served.run, reference);
        assert!(served.queries > 0);
        assert_eq!(served.epochs, 3 + 2); // initial + 3 rounds + final
        assert!(served.shares_all_segments);
    }

    #[test]
    fn snapshot_cost_reports_sharing() {
        let g = sparse_sharded(4096, 8192, 3, SHARDS);
        assert!(fresh_clone_shares_all_segments(&g));
        // A deep copy shares nothing, so the check can fail.
        let mut deep = g.clone();
        deep.segments_mut();
        assert!((0..SHARDS).all(|s| !g.shares_segment(&deep, s)));
    }
}
