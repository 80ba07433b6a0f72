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
//! Three claims, three kinds of rows:
//!
//! 1. **Serving is observation, not perturbation** (reproducible): the
//!    served run's per-round edge counts and final row checksum equal a
//!    batch run of the same `(graph, rule, seed)`, with readers hammering
//!    the snapshot surface the whole time.
//! 2. **Snapshot acquisition is O(S), not O(m)** (reproducible fact +
//!    wall-clock ratio): a fresh clone shares all `S` copy-on-write
//!    segments with the live graph (the O(S) mechanism, asserted), and the
//!    measured clone time is orders of magnitude under a forced deep copy
//!    of the same graph.
//! 3. **Sustained QPS × round latency** (wall-clock appendix): queries per
//!    second served while the engine advances, and the round latency paid
//!    under that load.

use crate::experiments::shard::{fixed_horizon, row_checksum, sparse_sharded};
use crate::harness::{Args, Report};
use gossip_analysis::{fmt_f64, Table};
use gossip_core::{EngineBuilder, ListenerSet, Pull};
use gossip_graph::{NodeId, ShardedArenaGraph};
use gossip_serve::{GossipService, ServeConfig, TrajectoryRecorder};
use gossip_shard::{BuildSharded, ShardedEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 8;
const READERS: usize = 2;

/// Batch reference: same engine, no service, no readers. Returns the
/// per-round edge counts (pull only ever adds, so each is the start count
/// plus the rounds' `added` so far), the final row checksum and `m`.
fn batch_reference(g: ShardedArenaGraph, seed: u64, horizon: u64) -> (Vec<u64>, u64, u64) {
    let mut m = g.m();
    let run = fixed_horizon(&mut ShardedEngine::new(g, Pull, seed), horizon);
    let edges_per_round = run
        .stats
        .iter()
        .map(|s| {
            m += s.added;
            m
        })
        .collect();
    (edges_per_round, run.checksum, run.final_m)
}

/// One reader thread's share of the query mix: grab the current snapshot,
/// do a handful of point reads plus a periodic aggregate pass, repeat.
/// Returns the number of queries answered.
fn query_load(
    handle: gossip_serve::ServiceHandle<ShardedArenaGraph>,
    done: Arc<AtomicBool>,
    reader: usize,
) -> u64 {
    let mut queries = 0u64;
    let mut i = 0u64;
    while !done.load(Ordering::Acquire) {
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
        std::thread::yield_now();
    }
    queries
}

struct ServeRun {
    edges_per_round: Vec<u64>,
    checksum: u64,
    final_m: u64,
    wall_secs: f64,
    queries: u64,
    epochs: u64,
}

/// The measured configuration: serve `horizon` rounds with `READERS`
/// query threads live the whole time.
fn serve_under_load(g: ShardedArenaGraph, seed: u64, horizon: u64) -> ServeRun {
    let (trajectory_listener, trajectory) = TrajectoryRecorder::new(1);
    let engine = EngineBuilder::new(g, Pull, seed).build_sharded();
    let t = Instant::now();
    let svc = GossipService::spawn_with(
        engine,
        ServeConfig {
            snapshot_every: 1,
            budget: horizon,
        },
        ListenerSet::new().with(trajectory_listener),
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
    let wall_secs = t.elapsed().as_secs_f64();
    let trajectory = trajectory.lock().expect("trajectory lock");
    ServeRun {
        edges_per_round: trajectory.iter().map(|p| p.edges).collect(),
        checksum: row_checksum(engine.graph()),
        final_m: engine.graph().m(),
        wall_secs,
        queries,
        epochs: out.epochs,
    }
}

/// Snapshot-acquisition microbenchmark on the post-run graph: CoW clone
/// (what the publisher pays per epoch) vs a forced deep copy (what a
/// whole-state snapshot would pay). Returns `(clone_ns, deep_ns, shares)`.
fn snapshot_cost(g: &ShardedArenaGraph) -> (f64, f64, bool) {
    const REPS: usize = 8;
    let t = Instant::now();
    let mut keep = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        keep.push(g.clone());
    }
    let clone_ns = t.elapsed().as_nanos() as f64 / REPS as f64;
    let shares = (0..g.shard_count()).all(|s| g.shares_segment(&keep[0], s));
    let t = Instant::now();
    for _ in 0..REPS {
        let mut deep = g.clone();
        // `segments_mut` is the CoW commit point: materializing every
        // segment of a shared clone IS the deep copy.
        let segs = deep.segments_mut();
        std::hint::black_box(segs.len());
    }
    let deep_ns = t.elapsed().as_nanos() as f64 / REPS as f64;
    (clone_ns, deep_ns, shares)
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

    let mut table = Table::new([
        "n",
        "S",
        "rounds",
        "epochs",
        "queries",
        "QPS",
        "round ms (under load)",
        "snapshot ns (CoW)",
        "deep copy ns",
        "copy ratio",
    ]);

    for &n in &sizes {
        let horizon = horizon_of(n);
        let g = sparse_sharded(n, 2 * n as u64, args.seed, SHARDS);

        let (batch_edges, batch_checksum, batch_m) =
            batch_reference(g.clone(), args.seed ^ 0x5EF7, horizon);
        let served = serve_under_load(g, args.seed ^ 0x5EF7, horizon);

        // Claim 1: serving is observation, not perturbation.
        let matches = served.edges_per_round == batch_edges
            && served.checksum == batch_checksum
            && served.final_m == batch_m;
        assert!(
            matches,
            "served trajectory diverged from batch at n={n}: \
             served m={} batch m={batch_m}",
            served.final_m
        );
        report.measure_scalar(
            "served_matches_batch",
            "pull",
            format!("shards-{SHARDS}"),
            n as u64,
            matches as u64 as f64,
        );
        report.measure_scalar(
            "edges_added",
            "pull",
            format!("shards-{SHARDS}"),
            n as u64,
            (served.final_m - (n as u64 - 1 + 2 * n as u64)) as f64,
        );

        // Claim 2: snapshots are O(S). The sharing fact is deterministic;
        // the measured times go to the wall-clock appendix.
        let (clone_ns, deep_ns, shares) = {
            let g_after = sparse_sharded(n, 2 * n as u64, args.seed, SHARDS);
            let mut e = ShardedEngine::new(g_after, Pull, args.seed ^ 0x5EF7);
            for _ in 0..horizon {
                e.step();
            }
            snapshot_cost(e.graph())
        };
        assert!(shares, "fresh clone must share all segments at n={n}");
        report.measure_scalar(
            "snapshot_shares_all_segments",
            "sharded-arena",
            format!("shards-{SHARDS}"),
            n as u64,
            shares as u64 as f64,
        );
        report.measure_wallclock_scalar(
            "snapshot_clone_ns",
            "sharded-arena",
            format!("shards-{SHARDS}"),
            n as u64,
            clone_ns,
        );
        report.measure_wallclock_scalar(
            "deep_copy_ns",
            "sharded-arena",
            format!("shards-{SHARDS}"),
            n as u64,
            deep_ns,
        );
        report.measure_wallclock_scalar(
            "snapshot_speedup_vs_deep_copy",
            "sharded-arena",
            format!("shards-{SHARDS}"),
            n as u64,
            deep_ns / clone_ns.max(1.0),
        );

        // Claim 3: sustained query throughput × round latency.
        let qps = served.queries as f64 / served.wall_secs;
        let round_ms = served.wall_secs * 1e3 / horizon as f64;
        report.measure_wallclock_scalar("qps", "pull", format!("shards-{SHARDS}"), n as u64, qps);
        report.measure_wallclock_scalar(
            "round_ms_under_load",
            "pull",
            format!("shards-{SHARDS}"),
            n as u64,
            round_ms,
        );

        table.push_row([
            n.to_string(),
            SHARDS.to_string(),
            horizon.to_string(),
            served.epochs.to_string(),
            served.queries.to_string(),
            fmt_f64(qps),
            format!("{round_ms:.2}"),
            fmt_f64(clone_ns),
            fmt_f64(deep_ns),
            format!("{:.0}x", deep_ns / clone_ns.max(1.0)),
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
        let g = sparse_sharded(2048, 4096, 7, SHARDS);
        let a = batch_reference(g.clone(), 7, 4);
        let b = batch_reference(g, 7, 4);
        assert_eq!(a, b);
        assert_eq!(a.0.len(), 4);
        assert!(a.0.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn serve_under_load_matches_batch_at_test_scale() {
        let n = 4096;
        let g = sparse_sharded(n, 2 * n as u64, 11, SHARDS);
        let (batch_edges, batch_checksum, batch_m) = batch_reference(g.clone(), 11, 3);
        let served = serve_under_load(g, 11, 3);
        assert_eq!(served.edges_per_round, batch_edges);
        assert_eq!(served.checksum, batch_checksum);
        assert_eq!(served.final_m, batch_m);
        assert!(served.queries > 0);
        assert_eq!(served.epochs, 3 + 2); // initial + 3 rounds + final
    }

    #[test]
    fn snapshot_cost_reports_sharing() {
        let g = sparse_sharded(4096, 8192, 3, SHARDS);
        let (_, _, shares) = snapshot_cost(&g);
        assert!(shares);
    }
}
