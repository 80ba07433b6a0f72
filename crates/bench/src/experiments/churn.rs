//! E18 — churn as a first-class workload: membership bursts at scale.
//!
//! The paper's setting is a *dynamic* network, but E15–E17 drive static
//! node sets. This experiment installs a [`MembershipPlan`] burst schedule
//! into the engines (the lifecycle seam from `gossip-core`) and measures
//! what churn costs the discovery process at `n ∈ {2^20, 2^22}`:
//!
//! * **re-discovery time** (reproducible): rounds after a burst's rejoin
//!   until the departed cohort's total degree regains its pre-leave value —
//!   how fast gossip re-integrates returning members,
//! * **staleness** (reproducible): the cohort's knowledge deficit
//!   integrated over rounds (edge-rounds below the pre-leave baseline)
//!   from the leave until recovery — how much discovered state a burst
//!   destroys, weighted by how long it stays destroyed,
//! * **determinism under churn** (asserted in-run): the sharded engine at
//!   `S ∈ {1, 8}` and the sequential arena engine walk bit-identical
//!   trajectories under the same plan, and a *served* run (engine behind
//!   [`GossipService`] publishing epoch snapshots) equals the batch run —
//!   the sequential and served witnesses stop at `2^20` (each roughly
//!   doubles the largest size's cost: a second full run, or a snapshot
//!   copy held alongside the live graph),
//! * **memory** (acceptance): the `n = 2^22` churn sweep completes within
//!   1 GiB peak RSS when this experiment sets the process's high-water
//!   mark (run `run_all --only E18` for the clean reading); the
//!   acceptance size runs a shorter `ACCEPT_HORIZON` window so edge growth
//!   stays inside the ceiling.
//!
//! Leaves scrub the departed node from every row (the engine's membership
//! contract — no failure detector is modeled, the *schedule* is the
//! oracle), so a departed cohort's degree is exactly 0 while away and the
//! deficit metrics are pure functions of the plan and the seed.

use crate::experiments::scale::sparse_arena;
use crate::experiments::shard::{recorded, row_checksum, sparse_sharded, FixedHorizon};
use crate::harness::{Args, Report};
use gossip_analysis::Table;
use gossip_core::{
    ChurnBursts, Engine, EngineBuilder, GossipGraph, ListenerSet, MembershipEvent, MembershipPlan,
    MembershipStats, Pull, RoundRecorder,
};
use gossip_graph::NodeId;
use gossip_serve::{GossipService, ServeConfig};
use gossip_shard::{peak_rss_bytes, BuildSharded, ShardedEngine};

const SHARDS: usize = 8;
/// Rounds per run: two bursts land early (leaves at rounds 1 and 4,
/// rejoins one round later), leaving most of the horizon for recovery —
/// the second cohort departs with ~4 rounds of accumulated knowledge and
/// needs most of the remaining window to regain it.
const HORIZON: u64 = 16;
/// Rounds for the `n = 2^22` acceptance row. Pull grows the edge set by
/// ~`n` per round, and the arena keeps up to ~2.25× the live entries
/// (relocation reserve + dead space below the compaction trigger), so
/// sixteen rounds at 4M nodes put the run past the 1 GiB RSS ceiling on
/// edge data alone (measured 2.2 GiB); the largest size runs a shorter
/// window instead. Both bursts still land and the deficit metrics are
/// reported — recovery may be censored at the horizon (`recovered = no`),
/// with full-horizon recovery measured at `2^20`.
const ACCEPT_HORIZON: u64 = 6;

/// The burst schedule for one run: 2 bursts of `n/64` nodes, one round
/// away, 3 bootstrap contacts back in. Same shape at every size, so the
/// deficit metrics compare across `n`.
fn churn_cfg(n: usize, seed: u64) -> ChurnBursts {
    ChurnBursts {
        n,
        nodes_per_burst: (n / 64).max(1),
        bursts: 2,
        first_round: 1,
        period: 3,
        rejoin_after: 1,
        bootstrap_contacts: 3,
        seed: seed ^ 0xC402,
    }
}

/// The burst cohorts a plan departs, grouped by leave round (in plan-round
/// coordinates), extracted from the replayable event list.
fn cohorts(plan: &MembershipPlan) -> Vec<(u64, Vec<NodeId>)> {
    let mut out: Vec<(u64, Vec<NodeId>)> = Vec::new();
    for (round, ev) in plan.events() {
        if let MembershipEvent::Leave { node } = ev {
            match out.last_mut() {
                Some((r, nodes)) if r == round => nodes.push(*node),
                _ => out.push((*round, vec![*node])),
            }
        }
    }
    out
}

/// A recorder whose probe is the standard plan's per-cohort degree sums
/// (`probe[b]` = Σ degree over burst `b`'s cohort, exactly 0 while the
/// cohort is away). Everything downstream — the deficit metrics and the
/// cross-engine asserts — reads the rows it records.
fn cohort_recorder<G: GossipGraph>(n: usize, seed: u64) -> RoundRecorder<G> {
    let plan = MembershipPlan::bursts(&churn_cfg(n, seed));
    let sets: Vec<Vec<NodeId>> = cohorts(&plan).into_iter().map(|(_, c)| c).collect();
    RoundRecorder::probing(move |g: &G| {
        let degree = |&u: &NodeId| g.neighbor_row(u).len() as u64;
        sets.iter().map(|c| c.iter().map(degree).sum()).collect()
    })
}

/// One churned run: its rows and checksum, the membership events it
/// applied, and the final graph's memory.
struct ChurnRun {
    run: FixedHorizon,
    stats: MembershipStats,
    mem_bytes: usize,
}

/// One churned sharded run at `(n, shards)` under the standard plan.
fn sharded_run(n: usize, shards: usize, seed: u64, horizon: u64) -> ChurnRun {
    let g = sparse_sharded(n, 2 * n as u64, seed, shards);
    let plan = MembershipPlan::bursts(&churn_cfg(n, seed));
    let mut e = ShardedEngine::new(g, Pull, seed ^ 0x5A4D).with_membership(plan);
    ChurnRun {
        run: recorded(&mut e, horizon, cohort_recorder(n, seed)),
        stats: e.membership_stats(),
        mem_bytes: e.graph().memory_bytes(),
    }
}

/// The sequential oracle: the plain arena [`Engine`] under the same graph,
/// rule, seed, and plan. Its rows must equal the sharded runs' — the
/// membership seam keeps the engines bit-identical under churn.
fn sequential_run(n: usize, seed: u64, horizon: u64) -> ChurnRun {
    let g = sparse_arena(n, 2 * n as u64, seed);
    let plan = MembershipPlan::bursts(&churn_cfg(n, seed));
    let mut e = Engine::new(g, Pull, seed ^ 0x5A4D).with_membership(plan);
    ChurnRun {
        run: recorded(&mut e, horizon, cohort_recorder(n, seed)),
        stats: e.membership_stats(),
        mem_bytes: e.graph().memory_bytes(),
    }
}

/// The served run: the same churned engine resident behind
/// [`GossipService`], publishing an epoch snapshot every round and
/// recording through the same probe — compared against the batch run.
fn served_run(n: usize, seed: u64, horizon: u64) -> FixedHorizon {
    let g = sparse_sharded(n, 2 * n as u64, seed, SHARDS);
    let plan = MembershipPlan::bursts(&churn_cfg(n, seed));
    let rec = cohort_recorder(n, seed);
    let engine = EngineBuilder::new(g, Pull, seed ^ 0x5A4D)
        .membership(plan)
        .build_sharded();
    let svc = GossipService::spawn_with(
        engine,
        ServeConfig {
            snapshot_every: 1,
            budget: horizon,
        },
        ListenerSet::new().with(rec.clone()),
    );
    let (engine, _outcome) = svc.join();
    FixedHorizon {
        rows: rec.rows(),
        checksum: row_checksum(engine.graph()),
    }
}

/// Per-burst deficit metrics, in plan-round coordinates. An event at plan
/// round `R` fires at the top of step `R + 1`, so it is visible in row
/// index `R`; the pre-leave baseline is index `L - 1`.
struct BurstMetrics {
    leave_round: u64,
    rejoin_round: u64,
    /// Cohort degree sum just before the leave.
    deg_pre: u64,
    /// Rounds from the rejoin's visibility until the cohort regained
    /// `deg_pre` (0 = same round), capped at the horizon if unrecovered.
    rediscovery_rounds: u64,
    /// Σ max(0, deg_pre − cohort degree sum) over rounds from leave to
    /// recovery.
    staleness_edge_rounds: u64,
    recovered: bool,
}

fn burst_metrics(cfg: &ChurnBursts, run: &FixedHorizon) -> Vec<BurstMetrics> {
    let plan = MembershipPlan::bursts(cfg);
    cohorts(&plan)
        .iter()
        .enumerate()
        .map(|(b, (leave_round, _))| {
            let deg: Vec<u64> = run.rows.iter().map(|r| r.probe[b]).collect();
            let l = *leave_round as usize;
            let rejoin_round = leave_round + cfg.rejoin_after;
            assert!(l >= 1, "first_round must be >= 1 for a pre-leave baseline");
            let deg_pre = deg[l - 1];
            let mut staleness = 0u64;
            let mut r = l;
            let recovered = loop {
                match deg.get(r) {
                    None => break false,
                    Some(&d) if d >= deg_pre => break true,
                    Some(&d) => {
                        staleness += deg_pre - d;
                        r += 1;
                    }
                }
            };
            BurstMetrics {
                leave_round: *leave_round,
                rejoin_round,
                deg_pre,
                rediscovery_rounds: (r as u64).saturating_sub(rejoin_round),
                staleness_edge_rounds: staleness,
                recovered,
            }
        })
        .collect()
}

/// E18: churn bursts — re-discovery, staleness, determinism, memory.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E18-churn");
    let rss_floor = peak_rss_bytes();
    // The 2^22 row is the acceptance run (1 GiB RSS ceiling) and goes
    // FIRST: peak RSS is process-wide and monotone, and the allocator
    // holds freed pages, so running a smaller size beforehand would
    // pollute the high-water mark with its leftovers. Quick keeps one
    // small size so CI smoke exercises every code path in seconds.
    let sizes: Vec<usize> = if args.quick {
        vec![1 << 14]
    } else {
        vec![1 << 22, 1 << 20]
    };

    let mut deficit = Table::new([
        "n",
        "burst",
        "cohort",
        "leave@",
        "rejoin@",
        "deg before",
        "re-discovery rounds",
        "staleness (edge-rounds)",
        "recovered",
    ]);
    let mut invariance = Table::new([
        "n",
        "run",
        "rounds",
        "final m",
        "leaves",
        "joins",
        "edges removed",
        "bootstrap edges",
        "matches S=1",
    ]);

    for &n in &sizes {
        let cfg = churn_cfg(n, args.seed);
        // The acceptance size trades horizon for memory (ACCEPT_HORIZON's
        // doc has the arithmetic); every smaller size runs the full window.
        let horizon = if n >= 1 << 22 {
            ACCEPT_HORIZON
        } else {
            HORIZON
        };
        let base = sharded_run(n, 1, args.seed, horizon);
        let s8 = sharded_run(n, SHARDS, args.seed, horizon);

        // Sharded-vs-sequential determinism under churn, measured at full
        // scale (the test suites pin it at property scale).
        let sharded_agree = s8.run == base.run && s8.stats == base.stats;
        assert!(sharded_agree, "S={SHARDS} diverged from S=1 at n={n}");
        // The plain sequential engine is the third witness; its run doubles
        // the largest size's cost, so it stops at 2^20 (full) / 2^14 (quick).
        let seq_agree = if n <= 1 << 20 {
            let seq = sequential_run(n, args.seed, horizon);
            let ok = seq.run == base.run && seq.stats == base.stats;
            assert!(ok, "sequential arena engine diverged at n={n}");
            Some(ok)
        } else {
            None
        };
        report.measure_scalar(
            "sharded_matches_sequential",
            "pull",
            "churn",
            n as u64,
            sharded_agree as u64 as f64,
        );

        // Served-under-churn == batch-under-churn: the resident service
        // applies the same plan on its worker thread and must not perturb
        // the trajectory while publishing per-round snapshots. The service
        // holds the latest snapshot alongside the live graph — two full
        // copies once every segment is dirtied — so, like the sequential
        // oracle, the served witness stops at 2^20 and leaves the
        // acceptance size within its RSS ceiling.
        let served = if n <= 1 << 20 {
            let ok = served_run(n, args.seed, horizon) == base.run;
            assert!(ok, "served churn run diverged from batch at n={n}");
            report.measure_scalar(
                "served_matches_batch",
                "pull",
                "churn",
                n as u64,
                ok as u64 as f64,
            );
            Some(ok)
        } else {
            None
        };

        // The headline metrics, from the (identical) trajectories.
        for (b, m) in burst_metrics(&cfg, &base.run).iter().enumerate() {
            report.measure_scalar(
                "rediscovery_rounds",
                "pull",
                format!("burst-{b}"),
                n as u64,
                m.rediscovery_rounds as f64,
            );
            report.measure_scalar(
                "staleness_edge_rounds",
                "pull",
                format!("burst-{b}"),
                n as u64,
                m.staleness_edge_rounds as f64,
            );
            deficit.push_row([
                n.to_string(),
                b.to_string(),
                cfg.nodes_per_burst.to_string(),
                m.leave_round.to_string(),
                m.rejoin_round.to_string(),
                m.deg_pre.to_string(),
                m.rediscovery_rounds.to_string(),
                m.staleness_edge_rounds.to_string(),
                if m.recovered { "yes" } else { "no" }.into(),
            ]);
        }
        report.measure_scalar(
            "edges_removed_by_leaves",
            "pull",
            "churn",
            n as u64,
            base.stats.edges_removed as f64,
        );
        report.measure_scalar(
            "bootstrap_edges_added",
            "pull",
            "churn",
            n as u64,
            base.stats.edges_added as f64,
        );
        report.measure_scalar(
            "mem_bytes",
            "sharded-arena",
            "churn",
            n as u64,
            s8.mem_bytes as f64,
        );

        for (label, run, matches) in [
            ("sharded S=1", &base, true),
            ("sharded S=8", &s8, sharded_agree),
        ] {
            invariance.push_row([
                n.to_string(),
                label.into(),
                horizon.to_string(),
                run.run.final_m().to_string(),
                run.stats.leaves.to_string(),
                run.stats.joins.to_string(),
                run.stats.edges_removed.to_string(),
                run.stats.edges_added.to_string(),
                if matches { "yes" } else { "NO" }.into(),
            ]);
        }
        if let Some(served_agree) = served {
            invariance.push_row([
                n.to_string(),
                "served S=8".into(),
                horizon.to_string(),
                base.run.final_m().to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                if served_agree { "yes" } else { "NO" }.into(),
            ]);
        }
        if let Some(ok) = seq_agree {
            invariance.push_row([
                n.to_string(),
                "sequential arena".into(),
                horizon.to_string(),
                base.run.final_m().to_string(),
                base.stats.leaves.to_string(),
                base.stats.joins.to_string(),
                base.stats.edges_removed.to_string(),
                base.stats.edges_added.to_string(),
                if ok { "yes" } else { "NO" }.into(),
            ]);
        }

        // Acceptance: the 2^22 churn sweep fits 1 GiB peak RSS. VmHWM is
        // process-wide and monotone — inside run_all the floor is set by
        // earlier experiments (E16 also allocates 2^22 graphs), so the
        // ceiling is enforced only when this experiment owns the
        // high-water mark: `run_all --only E18` gives the clean reading.
        if n == 1 << 22 {
            if let (Some(floor), Some(peak)) = (rss_floor, peak_rss_bytes()) {
                const GIB: u64 = 1 << 30;
                if floor < GIB / 4 {
                    assert!(
                        peak <= GIB,
                        "E18 churn sweep at n=2^22 exceeded 1 GiB peak RSS: {} MiB",
                        peak >> 20
                    );
                }
            }
        }
    }

    report.note(format!(
        "membership bursts ({} bursts of n/64 nodes, 1 round away, 3 bootstrap \
         contacts) ran through the lifecycle seam at every size; sharded (S ∈ \
         {{1, {SHARDS}}}), sequential, and served runs stayed bit-identical under \
         the same plan — determinism under churn, measured (the sequential and \
         served witnesses run through n = 2^20; the 2^22 row pins S=1 vs S={SHARDS} \
         over a {ACCEPT_HORIZON}-round window to stay inside the RSS ceiling). \
         Sizes: {}.",
        churn_cfg(1 << 14, 0).bursts,
        if args.quick {
            "quick (2^14)"
        } else {
            "full (2^20, 2^22)"
        }
    ));
    report.note(
        "re-discovery counts rounds from a cohort's rejoin until its total degree \
         regains the pre-leave value; staleness integrates the deficit (edge-rounds) \
         from the leave until recovery. Departed nodes are scrubbed from every row, \
         so both metrics are exact functions of the plan — no failure detector is \
         modeled. The 1-GiB peak-RSS ceiling at n = 2^22 is asserted only when this \
         experiment owns the process high-water mark (`run_all --only E18`).",
    );
    report.table("churn bursts: re-discovery and staleness (pull)", deficit);
    report.table(
        "determinism under churn (trajectory invariance)",
        invariance,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_runs_agree_across_shard_counts_under_churn() {
        let n = 2048;
        let a = sharded_run(n, 1, 7, HORIZON);
        let b = sharded_run(n, 8, 7, HORIZON);
        assert_eq!(a.run, b.run);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.leaves > 0 && a.stats.joins > 0, "{:?}", a.stats);
    }

    #[test]
    fn sequential_engine_matches_sharded_under_churn() {
        let n = 1024;
        let seq = sequential_run(n, 11, HORIZON);
        let sharded = sharded_run(n, 4, 11, HORIZON);
        assert_eq!(seq.run, sharded.run);
        assert_eq!(seq.stats, sharded.stats);
    }

    #[test]
    fn served_matches_batch_under_churn_at_test_scale() {
        let n = 4096;
        let batch = sharded_run(n, SHARDS, 3, HORIZON);
        assert_eq!(served_run(n, 3, HORIZON), batch.run);
    }

    #[test]
    fn burst_metrics_track_departure_and_recovery() {
        let n = 1024;
        let seed = 5;
        let cfg = churn_cfg(n, seed);
        let run = sharded_run(n, 1, seed, HORIZON);
        let metrics = burst_metrics(&cfg, &run.run);
        assert_eq!(metrics.len(), cfg.bursts);
        for (b, m) in metrics.iter().enumerate() {
            // The cohort had real knowledge before departing ...
            assert!(m.deg_pre > 0, "burst {b}: empty pre-leave cohort");
            // ... is fully scrubbed while away (event at round R is
            // visible at row index R; rejoin lands one round later)
            assert_eq!(
                run.run.rows[m.leave_round as usize].probe[b], 0,
                "burst {b}: cohort degree not scrubbed on leave"
            );
            // ... and the deficit window is non-trivial: at least the
            // absent round's full baseline is integrated.
            assert!(
                m.staleness_edge_rounds >= m.deg_pre,
                "burst {b}: staleness {} < baseline {}",
                m.staleness_edge_rounds,
                m.deg_pre
            );
            assert!(m.recovered, "burst {b}: cohort never recovered");
        }
    }

    #[test]
    fn arena_checksum_matches_sharded_checksum_on_equal_rows() {
        let n = 2048;
        let a = crate::experiments::scale::sparse_arena(n, 2 * n as u64, 7);
        let s = sparse_sharded(n, 2 * n as u64, 7, 4);
        assert_eq!(row_checksum(&a), row_checksum(&s));
    }
}
