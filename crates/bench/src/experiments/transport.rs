//! E19 — cross-process shard transport: the sharded round over a
//! serialized seam.
//!
//! PR 5's `ShardedEngine` proved the round decomposes into owner-local
//! segments exchanging `(source, owner)` mailboxes — but the mailboxes
//! were `Vec`s handed across a function call. This experiment drives the
//! same two-hop walk through [`gossip_shard::transport`]: every shard is
//! its own **OS process** holding a full replica, mailboxes travel as
//! length-prefixed frames over Unix domain sockets, and a supervisor
//! routes frames and collects round barriers. Per `(n, S)` it records:
//!
//! * **trajectory invariance** — per-round stats, final edge count, and
//!   the row checksum must equal the in-process `ShardedEngine` run of
//!   the same `(n, seed)` (which PR 5 pinned to the sequential engine),
//! * **wire volume** — frames and bytes actually written per round (a
//!   deterministic function of the trajectory: frames travel in
//!   canonical order),
//! * **memory** — per-shard worker peak RSS (`VmHWM`, read by each worker
//!   from its own `/proc`) and the supervisor's process-wide peak,
//! * **wall-clock** — rounds/sec across the serialized seam. Wall-clock
//!   and RSS rows go to the report's machine-dependent appendix, never
//!   into the reproducible sections.
//!
//! The full run's `n = 10^7` row is the acceptance point: a ten-million
//! node round spread across 4 shard processes, completing a fixed horizon
//! with per-shard RSS and wire bytes on record. The oracle run and the
//! transport run execute **sequentially** (the oracle graph is dropped
//! before workers spawn), so peak memory is the transport's own
//! `S + 1` replicas, not oracle + transport.
//!
//! A stream socket loses nothing, so there is no loss leg here: seeded
//! carrier loss and its repair are E20's grid (0/5/20 % on the datagram
//! window).

use crate::experiments::shard::{
    fixed_horizon, fmt_mib, oracle, peak_rss_bytes, sparse_sharded, FixedHorizon,
};
use crate::harness::{Args, Report};
use gossip_analysis::{fmt_f64, Table};
use gossip_core::RuleId;
use gossip_shard::transport::{TransportBuilder, TransportMode};
use gossip_shard::TransportStats;

/// One fixed-horizon run across the serialized seam.
fn transport_run(
    n: usize,
    shards: usize,
    horizon: u64,
    seed: u64,
    mode: TransportMode,
) -> (FixedHorizon, TransportStats) {
    let g = sparse_sharded(n, 2 * n as u64, seed, shards);
    let mut e = TransportBuilder::new(g, RuleId::Pull, seed ^ 0x5A4D)
        .with_mode(mode)
        .spawn()
        .expect("spawn shard workers");
    let run = fixed_horizon(&mut e, horizon);
    let wire = e.stats().clone();
    e.shutdown().expect("clean worker exit");
    (run, wire)
}

/// E19: framed mailbox exchange across shard processes.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E19-transport");

    // (n, S grid, horizon). Quick shrinks n; the full run's 10^7 row is
    // the acceptance workload. Horizons are short everywhere: each worker
    // holds a full replica, so the row exists to prove the seam at scale,
    // not to re-measure convergence (E1-E16).
    let sweeps: Vec<(usize, Vec<usize>, u64)> = if args.quick {
        vec![(1 << 14, vec![2, 4], 4)]
    } else {
        vec![(1 << 20, vec![2, 4], 5), (10_000_000, vec![4], 4)]
    };
    let mut table = Table::new([
        "n",
        "S",
        "rounds",
        "edges added",
        "wire MiB",
        "frames",
        "rounds/sec",
        "worker RSS MiB (max)",
        "supervisor RSS MiB",
    ]);

    // The config label the claims table selects E19's rows by.
    let label = "uds";
    for (n, shard_grid, horizon) in sweeps {
        for shards in shard_grid {
            let oracle = oracle(n, shards, horizon, args.seed);
            let (r, wire) = transport_run(n, shards, horizon, args.seed, TransportMode::Process);

            // The headline contract, measured per run: the serialized
            // seam replays the in-process engine bit-for-bit.
            let invariant = r.matches(&oracle);
            assert!(
                invariant,
                "{label} transport diverged from in-process engine at n={n}, S={shards}"
            );

            let added: u64 = r.stats.iter().map(|st| st.added).sum();
            let fam = format!("shards-{shards}");
            report.measure_scalar(
                "trajectory_invariant_vs_inproc",
                label,
                fam.clone(),
                n as u64,
                invariant as u64 as f64,
            );
            report.measure_scalar("edges_added", label, fam.clone(), n as u64, added as f64);
            // Wire volume is a pure function of the trajectory, so it
            // belongs with the reproducible rows.
            report.measure_scalar(
                "wire_bytes_sent",
                label,
                fam.clone(),
                n as u64,
                wire.wire.bytes_sent as f64,
            );

            // Machine-dependent rows: throughput and memory.
            let worker_rss = wire.worker_peak_rss_bytes.iter().copied().max();
            report.measure_wallclock_scalar(
                "rounds_per_sec",
                label,
                fam.clone(),
                n as u64,
                1e9 / r.wall_ns_per_round,
            );
            if let Some(rss) = worker_rss {
                report.measure_wallclock_scalar(
                    "worker_peak_rss_bytes",
                    label,
                    fam.clone(),
                    n as u64,
                    rss as f64,
                );
            }

            table.push_row([
                n.to_string(),
                shards.to_string(),
                horizon.to_string(),
                added.to_string(),
                fmt_mib(wire.wire.bytes_sent),
                wire.wire.frames_sent.to_string(),
                fmt_f64(1e9 / r.wall_ns_per_round),
                worker_rss.map_or("-".into(), fmt_mib),
                peak_rss_bytes().map_or("-".into(), fmt_mib),
            ]);
        }
    }

    report.note(format!(
        "every transport run — one OS process per shard, mailboxes as \
         length-prefixed frames over Unix domain sockets — replayed the \
         in-process ShardedEngine bit-for-bit (per-round stats, final m, row \
         checksum). Horizons: {}.",
        if args.quick {
            "quick (4 rounds at n = 2^14)"
        } else {
            "full (5 rounds at n = 2^20; 4 rounds at n = 10^7 across 4 processes)"
        }
    ));
    report.note(
        "wire bytes are a pure function of the trajectory and sit with the \
         reproducible rows; rounds/sec, worker peak RSS (per-shard VmHWM, \
         reported by each worker over the wire), \
         and supervisor RSS are machine-dependent and stay in the wall-clock \
         appendix. Worker RSS is the per-shard memory story: each worker \
         holds a full replica, so the figure tracks graph size, not 1/S of it.",
    );
    report.table("framed UDS transport vs in-process engine (pull)", table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process mode would re-exec the libtest harness; everything the unit
    // level needs is provable with thread-hosted workers on the same
    // framed socketpair path.
    #[test]
    fn transport_run_matches_oracle_in_thread_mode() {
        let (stats, m, sum) = oracle(1500, 3, 3, 9);
        let (r, wire) = transport_run(1500, 3, 3, 9, TransportMode::Thread);
        assert_eq!(r.stats, stats);
        assert_eq!(r.final_m, m);
        assert_eq!(r.checksum, sum);
        assert!(wire.wire.bytes_sent > 0);
    }
}
