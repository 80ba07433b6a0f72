//! The paper-results report: pooling [`Measurement`]s across seeds and
//! rendering the repository's `RESULTS.md`.
//!
//! `run_all --report` runs the whole experiment battery once per seed,
//! pools every `(experiment, metric, algorithm, family, n)` configuration
//! across seeds by **concatenating the raw per-trial samples** (the `± CI`
//! columns are deterministic percentile bootstraps of the pooled sample),
//! and renders a Markdown document:
//!
//! 1. a **paper claim vs. measured** table — one row per theorem/figure,
//! 2. **mean rounds ± 95% CI per algorithm per n** for the headline
//!    O(n log² n) sweeps,
//! 3. **log²-n fit quality** per family from [`gossip_analysis::fit`],
//! 4. the full pooled measurement dump (the canonical numbers),
//! 5. an **appendix of wall-clock observations** (machine-dependent,
//!    excluded from the reproducibility contract).
//!
//! Everything that reaches the page above the appendix flows from seeded
//! simulations through fixed-precision formatting, so the same command
//! line reproduces those sections byte-for-byte; wall-clock time only
//! ever enters the appendix.

use crate::harness::{Args, Measurement};
use gossip_analysis::{
    bootstrap_mean_ci, fit_model, fmt_f64, loglog_exponent, ols, GrowthModel, Summary, Table,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Resamples per pooled bootstrap interval. Cheap (a few hundred configs ×
/// tens of observations) and plenty for a 95% percentile interval.
const BOOTSTRAP_RESAMPLES: usize = 1000;

/// FNV-1a of the configuration key ([`gossip_analysis::Fnv1a`]) — the
/// deterministic per-config bootstrap seed, so the same battery always
/// resamples identically.
fn config_seed(key: &(String, String, String, String, u64)) -> u64 {
    gossip_analysis::Fnv1a::new()
        .write(key.0.as_bytes())
        .write(key.1.as_bytes())
        .write(key.2.as_bytes())
        .write(key.3.as_bytes())
        .write_u64(key.4)
        .finish()
}

/// Pools per-seed measurements of the same configuration into one summary.
///
/// Every row carries its raw per-trial [`samples`](Measurement::samples)
/// (`Report::measure` is the one constructor and always fills them), so
/// pooling **concatenates the raw samples** across seeds: mean/stddev/
/// min/max are recomputed from the combined sample, and `ci95` is the
/// half-width of a deterministic percentile-bootstrap interval for the
/// mean ([`gossip_analysis::bootstrap_mean_ci`], seeded from the
/// configuration key). Round-count distributions are skewed; the bootstrap
/// stays honest where a normal-theory moment merge undercovers on small
/// trial counts. Output order is first-appearance order, which the fixed
/// battery order makes stable.
pub fn pool(all: &[Measurement]) -> Vec<Measurement> {
    let mut index: BTreeMap<(String, String, String, String, u64), usize> = BTreeMap::new();
    let mut pooled: Vec<Measurement> = Vec::new();
    let mut keys: Vec<(String, String, String, String, u64)> = Vec::new();
    for m in all {
        let key = (
            m.experiment.clone(),
            m.metric.clone(),
            m.algorithm.clone(),
            m.family.clone(),
            m.n,
        );
        match index.get(&key) {
            None => {
                index.insert(key.clone(), pooled.len());
                pooled.push(m.clone());
                keys.push(key);
            }
            Some(&i) => {
                let p = &mut pooled[i];
                p.samples.extend_from_slice(&m.samples);
                p.wallclock |= m.wallclock;
            }
        }
    }
    for (p, key) in pooled.iter_mut().zip(&keys) {
        // The raw pooled sample is the ground truth: exact moments plus a
        // deterministic percentile-bootstrap interval for the mean.
        let s = Summary::of(&p.samples);
        p.trials = s.count as u64;
        p.mean = s.mean;
        p.stddev = s.stddev;
        p.min = s.min;
        p.max = s.max;
        p.ci95 =
            bootstrap_mean_ci(&p.samples, BOOTSTRAP_RESAMPLES, 0.95, config_seed(key)).half_width();
    }
    pooled
}

/// Selects measurements of one experiment/metric (and optionally one
/// algorithm), in pooled order. The experiment id must match exactly —
/// prefix matching would conflate `E1` with `E10`–`E14`.
fn sel<'a>(
    ms: &'a [Measurement],
    experiment: &str,
    metric: &str,
    algorithm: Option<&str>,
) -> Vec<&'a Measurement> {
    ms.iter()
        .filter(|m| {
            m.experiment == experiment
                && m.metric == metric
                && algorithm.is_none_or(|a| m.algorithm == a)
        })
        .collect()
}

/// Distinct families among a selection, in first-appearance order.
fn families<'a>(ms: &[&'a Measurement]) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for m in ms {
        if !out.contains(&m.family.as_str()) {
            out.push(&m.family);
        }
    }
    out
}

/// `mean ± ci95` cell.
fn pm(m: &Measurement) -> String {
    format!("{} ± {}", fmt_f64(m.mean), fmt_f64(m.ci95))
}

/// Log-log slope of `mean` vs `n` for one family's sweep, with `r²`.
fn family_slope(points: &[&Measurement]) -> Option<gossip_analysis::OlsFit> {
    if points.len() < 2 {
        return None;
    }
    let ns: Vec<f64> = points.iter().map(|m| m.n as f64).collect();
    let ts: Vec<f64> = points.iter().map(|m| m.mean).collect();
    Some(loglog_exponent(&ns, &ts))
}

/// Renders the full `RESULTS.md` document from pooled measurements.
pub fn render_results(pooled: &[Measurement], args: &Args) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# RESULTS — *Discovery through Gossip*, reproduced\n");
    let _ = writeln!(
        out,
        "Measured reproduction of the paper's headline claims (Haeupler, \
         Pandurangan, Peleg, Rajaraman, Sun — SPAA 2012). Every number below \
         is a simulation round count or message size pooled across {} seeds \
         (CIs bootstrapped from the raw per-trial samples); wall-clock time \
         never enters these tables — machine-dependent observations are \
         quarantined in the final appendix — so everything above the \
         appendix regenerates **byte-for-byte** with:\n",
        args.report_seeds
    );
    let _ = writeln!(
        out,
        "```sh\ncargo run -p gossip-bench --release --bin run_all -- --report \
         --seed {} --report-seeds {}{}{} --out {}\n```\n",
        args.seed,
        args.report_seeds,
        if args.quick { " --quick" } else { "" },
        // Every flag that alters the measurements must round-trip through
        // this command, or "byte-for-byte" is a lie for non-default runs.
        if args.trials > 0 {
            format!(" --trials {}", args.trials)
        } else {
            String::new()
        },
        args.out_dir.display(),
    );
    let _ = writeln!(
        out,
        "(The file is written to `{}/RESULTS.md`; the checked-in copy at the \
         repository root is that output verbatim{}. Per-experiment detail \
         tables live under `results/` after any non-report run; \
         microbenchmark statistics and baselines are documented in \
         `crates/bench/README.md`.)\n",
        args.out_dir.display(),
        if args.quick {
            " of a --quick run (CI-sized sweeps)"
        } else {
            ""
        },
    );

    claims_section(&mut out, pooled);
    scaling_section(&mut out, pooled);
    fit_section(&mut out, pooled);
    dump_section(&mut out, pooled);
    wallclock_section(&mut out, pooled);
    out
}

/// Section 1: one row per paper claim, with the measured counterpart.
fn claims_section(out: &mut String, ms: &[Measurement]) {
    let _ = writeln!(out, "## Paper claims vs. measured\n");
    let mut t = Table::new(["paper claim", "experiment", "measured", "verdict"]);

    // Theorems 8 / 12: O(n log² n) upper bound, push and pull.
    for (thm, label, exp, alg) in [
        ("Thm 8 (push)", "E1", "E1-push-scaling", "push"),
        ("Thm 12 (pull)", "E3", "E3-pull-scaling", "pull"),
    ] {
        let rows = sel(ms, exp, "rounds", Some(alg));
        let mut slopes = Vec::new();
        let mut ratios = Vec::new();
        for fam in families(&rows) {
            let pts: Vec<&Measurement> = rows.iter().filter(|m| m.family == fam).copied().collect();
            if let Some(f) = family_slope(&pts) {
                slopes.push(f.slope);
            }
            if let Some(last) = pts.last() {
                let nf = last.n as f64;
                ratios.push(last.mean / (nf * nf.ln() * nf.ln()));
            }
        }
        let (smin, smax) = (
            slopes.iter().copied().fold(f64::INFINITY, f64::min),
            slopes.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        let rmax = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        t.push_row([
            format!("{thm}: any connected graph completes in O(n log² n) rounds w.h.p."),
            label.to_string(),
            format!(
                "log-log growth exponent {:.2}–{:.2} across {} families; rounds/(n ln² n) ≤ {} at largest n",
                smin,
                smax,
                families(&rows).len(),
                fmt_f64(rmax)
            ),
            verdict(smax < 2.0 && rmax.is_finite()),
        ]);
    }

    // Theorems 9 / 13: Ω(n log k) dense lower bound.
    {
        let rows = sel(ms, "E2-E4-dense-lowerbound", "rounds", None);
        let mut cells = Vec::new();
        let mut ok = true;
        for alg in ["push", "pull"] {
            let pts: Vec<&Measurement> = rows
                .iter()
                .filter(|m| m.algorithm == alg && m.n >= 2)
                .copied()
                .collect();
            // Host n is encoded in the family label `complete-minus-k-n<N>`.
            let host_n: f64 = pts
                .first()
                .and_then(|m| m.family.rsplit_once("-n").and_then(|(_, v)| v.parse().ok()))
                .unwrap_or(f64::NAN);
            if pts.len() >= 2 {
                let lnks: Vec<f64> = pts.iter().map(|m| (m.n as f64).ln()).collect();
                let means: Vec<f64> = pts.iter().map(|m| m.mean).collect();
                let f = ols(&lnks, &means);
                cells.push(format!(
                    "{alg}: {:.1} rounds per ln k (slope/n = {:.2}, r² = {:.3})",
                    f.slope,
                    f.slope / host_n,
                    f.r2
                ));
                ok &= f.slope > 0.0 && f.r2 > 0.8;
            }
        }
        t.push_row([
            "Thms 9/13: starting k edges short of complete, both processes need Ω(n log k) rounds"
                .to_string(),
            "E2/E4".to_string(),
            cells.join("; "),
            verdict(ok),
        ]);
    }

    // Theorems 14 / 15: directed bounds.
    {
        let rows = sel(ms, "E5-E6-directed", "rounds", Some("directed-pull"));
        let mut cells = Vec::new();
        let mut strong_slope = f64::NAN;
        let mut weak_slope = f64::NAN;
        for fam in families(&rows) {
            let pts: Vec<&Measurement> = rows.iter().filter(|m| m.family == fam).copied().collect();
            if let Some(f) = family_slope(&pts) {
                cells.push(format!("{fam}: slope {:.2}", f.slope));
                if fam == "thm15-strong" {
                    strong_slope = f.slope;
                }
                if fam == "thm14-weak" {
                    weak_slope = f.slope;
                }
            }
        }
        t.push_row([
            "Thms 14/15: directed two-hop walk is O(n² log n); adversarial families need Ω(n²) \
             (strong) and Ω(n² log n) (weak)"
                .to_string(),
            "E5/E6".to_string(),
            cells.join("; "),
            verdict(strong_slope > 1.7 && weak_slope > 1.7),
        ]);
    }

    // Figure 1(c): non-monotonicity, exactly.
    {
        let exact = sel(ms, "E7-nonmonotonicity", "exact_rounds", Some("push"));
        let g = exact.iter().find(|m| m.family == "K_1,4");
        let h = exact.iter().find(|m| m.family == "K_1,3");
        let pairs = sel(
            ms,
            "E7-nonmonotonicity",
            "counterexample_pairs",
            Some("push"),
        );
        if let (Some(g), Some(h)) = (g, h) {
            let npairs = pairs.first().map_or(0.0, |m| m.mean);
            t.push_row([
                "Fig 1(c): adding an edge can slow discovery — E[T_push] is non-monotone in the \
                 edge set"
                    .to_string(),
                "E7".to_string(),
                format!(
                    "exact E[T_push(K_1,4)] = {:.4} > E[T_push(K_1,3)] = {:.4}; {} same-vertex-set \
                     4-node counterexample pairs found exhaustively",
                    g.mean, h.mean, npairs as u64
                ),
                verdict(g.mean > h.mean && npairs >= 1.0),
            ]);
        }
    }

    // §1 corollary: subgroup discovery scales with k, not host size. The
    // restricted process never contacts non-members, so the host can only
    // enter through the shape of the induced subgraph (a BFS ball of a
    // larger host is a different workload, not a host-size effect). The
    // testable part of the claim is therefore the growth in k: log-log
    // slope near 1 (O(k log² k)), far below quadratic. The cross-host
    // spread is reported as context, not gated on.
    {
        let rows = sel(ms, "E9-subgroup-discovery", "rounds", Some("push-subset"));
        let mut cells = Vec::new();
        let mut slopes = Vec::new();
        for fam in families(&rows) {
            let pts: Vec<&Measurement> = rows.iter().filter(|m| m.family == fam).copied().collect();
            if let Some(f) = family_slope(&pts) {
                cells.push(format!("{fam}: slope {:.2} in k", f.slope));
                slopes.push(f.slope);
            }
        }
        let mut worst_dev: f64 = 0.0;
        let ks: Vec<u64> = {
            let mut v: Vec<u64> = rows.iter().map(|m| m.n).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for &k in &ks {
            let per_host: Vec<f64> = rows.iter().filter(|m| m.n == k).map(|m| m.mean).collect();
            if per_host.len() >= 2 {
                let lo = per_host.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = per_host.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                worst_dev = worst_dev.max((hi - lo) / lo);
            }
        }
        let smax = slopes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        t.push_row([
            "§1: a connected k-member subgroup completes in O(k log² k) rounds — growth is in k, \
             not host size"
                .to_string(),
            "E9".to_string(),
            format!(
                "{}; spread between hosts at fixed k reaches {:.0}% (different induced \
                 subgraphs — the restricted process never contacts non-members)",
                cells.join("; "),
                worst_dev * 100.0
            ),
            verdict(slopes.iter().all(|&s| s > 0.8) && smax < 1.8),
        ]);
    }

    // §1: O(log n)-bit messages vs Name Dropper.
    {
        let bits = sel(ms, "E10-baseline-comparison", "max_message_bits", None);
        let largest_n = bits.iter().map(|m| m.n).max().unwrap_or(0);
        let at = |alg: &str| {
            bits.iter()
                .find(|m| m.n == largest_n && m.algorithm.starts_with(alg))
                .map_or(f64::NAN, |m| m.mean)
        };
        let (push_bits, nd_bits) = (at("push"), at("Name Dropper"));
        t.push_row([
            "§1: gossip messages stay O(log n) bits while Name Dropper ships Θ(n log n)-bit \
             messages"
                .to_string(),
            "E10".to_string(),
            format!(
                "at n = {largest_n}: push max message {} bits vs Name Dropper {} bits ({}×)",
                fmt_f64(push_bits),
                fmt_f64(nd_bits),
                fmt_f64(nd_bits / push_bits)
            ),
            verdict(nd_bits > 10.0 * push_bits),
        ]);
    }

    // Model extension: synchronous vs asynchronous timing.
    {
        let sync = sel(ms, "E14-asynchrony", "rounds", None);
        let asynch = sel(ms, "E14-asynchrony", "time", None);
        let mut ratios = Vec::new();
        for s in &sync {
            let base_alg = s.algorithm.trim_end_matches("-sync");
            if let Some(a) = asynch.iter().find(|a| {
                a.algorithm.trim_end_matches("-async") == base_alg
                    && a.family == s.family
                    && a.n == s.n
            }) {
                ratios.push(a.mean / s.mean);
            }
        }
        if !ratios.is_empty() {
            let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            t.push_row([
                "model extension: Poisson-clock (asynchronous) timing matches the synchronous \
                 analysis round-for-round"
                    .to_string(),
                "E14".to_string(),
                format!(
                    "async/sync mean-time ratio in [{lo:.3}, {hi:.3}] across all configurations"
                ),
                verdict(lo > 0.8 && hi < 1.2),
            ]);
        }
    }

    // Scaling extension: the arena backend restores the paper's large-n
    // regime (ROADMAP north star, not a paper theorem).
    {
        let mem = sel(ms, "E15-engine-scaling", "mem_ratio", None);
        let rounds = sel(ms, "E15-engine-scaling", "rounds", Some("pull"));
        let biggest = rounds.iter().map(|m| m.n).max().unwrap_or(0);
        if let Some(r) = mem.first() {
            t.push_row([
                "scaling extension: arena-backed storage reaches the large-n regime the \
                 asymptotic claims are about — million-node runs in O(m + n) memory"
                    .to_string(),
                "E15".to_string(),
                format!(
                    "two-hop walk completes a fixed-horizon run at n = {biggest}; at n = {} the \
                     arena stores the same run in {}× less memory than the AdjSet layout",
                    r.n,
                    fmt_f64(r.mean)
                ),
                verdict(biggest >= 1 << 20 && r.mean >= 4.0),
            ]);
        }
    }

    // Scaling extension 2: the sharded round engine (PR 5). The verdict
    // gates only on deterministic facts — the 2^22 run completing and the
    // measured trajectory invariance across shard counts; the wall-clock
    // apply-phase speedups live in this file's machine-dependent appendix
    // (`apply_speedup_vs_arena` / `apply_speedup_vs_s1` rows) and in
    // results/E16-shard-scaling.md.
    {
        let invariant = sel(
            ms,
            "E16-shard-scaling",
            "trajectory_invariant",
            Some("pull"),
        );
        let biggest = invariant.iter().map(|m| m.n).max().unwrap_or(0);
        let shard_counts = families(&invariant).len();
        let all_invariant = !invariant.is_empty() && invariant.iter().all(|m| m.min >= 1.0);
        let cross = sel(
            ms,
            "E16-shard-scaling",
            "cross_shard_edge_fraction",
            Some("pull"),
        );
        let worst_cross = cross
            .iter()
            .filter(|m| m.family == "shards-8")
            .map(|m| m.mean)
            .fold(0.0f64, f64::max);
        if !invariant.is_empty() {
            t.push_row([
                "scaling extension: the sharded round engine parallelizes the apply phase with \
                 bit-identical trajectories for every shard count"
                    .to_string(),
                "E16".to_string(),
                format!(
                    "two-hop walk completes fixed-horizon runs at n = {biggest} on the sharded \
                     engine; per-round stats + row checksums identical across {shard_counts} \
                     shard configurations at every size, with {:.0}% of edges crossing shard \
                     boundaries at S = 8 (apply-phase speedups: wall-clock appendix)",
                    worst_cross * 100.0
                ),
                verdict(biggest >= 1 << 22 && all_invariant),
            ]);
        }
    }

    // Serving extension (PR 6): a live engine behind epoch snapshots. The
    // verdict gates only on deterministic facts — a served trajectory
    // bit-identical to batch under concurrent query load, and the O(S)
    // copy-on-write sharing fact; the QPS / round-latency / clone-vs-deep-
    // copy timings live in the wall-clock appendix and results/E17-*.md.
    {
        let matches = sel(ms, "E17-serve-load", "served_matches_batch", Some("pull"));
        let biggest = matches.iter().map(|m| m.n).max().unwrap_or(0);
        let all_match = !matches.is_empty() && matches.iter().all(|m| m.min >= 1.0);
        let shares = sel(
            ms,
            "E17-serve-load",
            "snapshot_shares_all_segments",
            Some("sharded-arena"),
        );
        let all_share = !shares.is_empty() && shares.iter().all(|m| m.min >= 1.0);
        if !matches.is_empty() {
            t.push_row([
                "serving extension: a resident engine serves concurrent snapshot queries \
                 without perturbing the discovery trajectory, at O(shards) per snapshot"
                    .to_string(),
                "E17".to_string(),
                format!(
                    "served runs up to n = {biggest} stay bit-identical to batch (per-round \
                     edge counts + final row checksum) while reader threads sustain a query \
                     mix; every published snapshot starts fully segment-shared with the live \
                     graph — CoW, not deep copy (QPS × round latency: wall-clock appendix)",
                ),
                verdict(biggest >= 1 << 20 && all_match && all_share),
            ]);
        }
    }

    // Dynamics extension (PR 8): membership churn through the lifecycle
    // seam. The verdict gates only on deterministic facts — churned
    // trajectories bit-identical across engine variants, and burst cohorts
    // re-discovered after rejoining at the full-window sizes; per-round
    // membership cost lives in the wall-clock appendix and results/E18-*.md.
    {
        let invariant = sel(ms, "E18-churn", "sharded_matches_sequential", Some("pull"));
        let biggest = invariant.iter().map(|m| m.n).max().unwrap_or(0);
        let all_invariant = !invariant.is_empty() && invariant.iter().all(|m| m.min >= 1.0);
        let served = sel(ms, "E18-churn", "served_matches_batch", Some("pull"));
        let all_served = !served.is_empty() && served.iter().all(|m| m.min >= 1.0);
        let served_biggest = served.iter().map(|m| m.n).max().unwrap_or(0);
        // Re-discovery at the sizes that run the full recovery window (the
        // 2^22 acceptance row trades horizon for its RSS ceiling, which can
        // censor its second burst).
        let rediscovery = sel(ms, "E18-churn", "rediscovery_rounds", None);
        let worst = rediscovery
            .iter()
            .filter(|m| m.n <= 1 << 20)
            .map(|m| m.max)
            .fold(0.0, f64::max);
        if !invariant.is_empty() {
            t.push_row([
                "dynamics extension: discovery absorbs membership churn — departed \
                 cohorts are re-discovered within a few rounds of rejoining, and the \
                 churned trajectory is an engine invariant"
                    .to_string(),
                "E18".to_string(),
                format!(
                    "churn bursts (2 × n/64 nodes, 1 round away) at n up to {biggest}: \
                     full-window runs re-discover a departed cohort within {worst:.0} \
                     rounds of its rejoin; sharded S ∈ {{1, 8}} stay bit-identical at \
                     every size and served runs equal batch through n = {served_biggest} \
                     under the same plan (membership cost: wall-clock appendix)"
                ),
                verdict(biggest >= 1 << 22 && all_invariant && all_served),
            ]);
        }
    }

    // Distribution extension (PR 9): the sharded round over a serialized
    // seam — one OS process per shard, framed mailboxes over UDS. The
    // verdict gates only on deterministic facts — trajectory invariance
    // vs the in-process engine and the 10^7 acceptance row completing;
    // rounds/sec and per-shard RSS live in the wall-clock appendix and
    // results/E19-*.md. Carrier loss is E20's claim, not this one's.
    {
        let uds = sel(
            ms,
            "E19-transport",
            "trajectory_invariant_vs_inproc",
            Some("uds"),
        );
        let biggest = uds.iter().map(|m| m.n).max().unwrap_or(0);
        let all_invariant = uds.iter().all(|m| m.min >= 1.0);
        if !uds.is_empty() {
            t.push_row([
                "distribution extension: the sharded round survives serialization — shard \
                 processes exchanging framed mailboxes over UDS replay the in-process \
                 engine bit-for-bit"
                    .to_string(),
                "E19".to_string(),
                format!(
                    "per-round stats, final edge count, and row checksums identical to the \
                     in-process sharded engine up to n = {biggest} at every shard count; \
                     frames travel in canonical order and every assembler asserts it (wire \
                     volume: reproducible rows; rounds/sec and per-shard RSS: wall-clock \
                     appendix)"
                ),
                verdict(biggest >= 10_000_000 && all_invariant),
            ]);
        }
    }

    // Distribution extension (PR 10): the datagram shard cluster — one OS
    // process per shard with its own UDP socket, static peer table across
    // loopback hosts, no supervisor on the data path. The verdict gates
    // only on deterministic facts — trajectory invariance vs the
    // in-process engine at every loss rate and the million-node acceptance
    // row completing; repair traffic, RSS, and bootstrap-overlap savings
    // live in the wall-clock appendix and results/E20-*.md.
    {
        let udp = sel(
            ms,
            "E20-cluster",
            "trajectory_invariant_vs_inproc",
            Some("udp"),
        );
        let loss5 = sel(
            ms,
            "E20-cluster",
            "trajectory_invariant_vs_inproc",
            Some("udp-loss-5%"),
        );
        let loss20 = sel(
            ms,
            "E20-cluster",
            "trajectory_invariant_vs_inproc",
            Some("udp-loss-20%"),
        );
        let biggest = udp.iter().map(|m| m.n).max().unwrap_or(0);
        let all_invariant = !udp.is_empty()
            && udp
                .iter()
                .chain(loss5.iter())
                .chain(loss20.iter())
                .all(|m| m.min >= 1.0);
        let drops = sel(ms, "E20-cluster", "injected_drops", None);
        let faulted = !drops.is_empty() && drops.iter().all(|m| m.min >= 1.0);
        if !udp.is_empty() {
            t.push_row([
                "distribution extension: the sharded round survives the network — shard \
                 processes exchanging datagrams peer-to-peer over UDP across loopback \
                 hosts replay the in-process engine bit-for-bit, through 20% seeded loss"
                    .to_string(),
                "E20".to_string(),
                format!(
                    "per-round stats, final edge count, and row checksums identical to the \
                     in-process sharded engine up to n = {biggest} on a 2-host × 2-process \
                     static peer table at 0%/5%/20% drop injection; ack/timeout/backoff \
                     windows repair every fault before its round barrier (datagram volume: \
                     reproducible rows; retransmits, RSS, and streamed-bootstrap overlap \
                     savings: wall-clock appendix)"
                ),
                verdict(biggest >= 1 << 20 && all_invariant && faulted),
            ]);
        }
    }

    out.push_str(&t.to_markdown());
    let _ = writeln!(out);
}

fn verdict(ok: bool) -> String {
    if ok { "reproduced" } else { "NOT reproduced" }.to_string()
}

/// Section 2: the headline sweep, mean ± CI per algorithm per n.
fn scaling_section(out: &mut String, ms: &[Measurement]) {
    let _ = writeln!(
        out,
        "## Convergence rounds: mean ± 95% CI per algorithm per n\n"
    );
    let _ = writeln!(
        out,
        "Undirected scaling sweeps (E1 push, E3 pull); each cell pools every \
         seed's trials on that topology family at that size.\n"
    );
    let push = sel(ms, "E1-push-scaling", "rounds", Some("push"));
    let pull = sel(ms, "E3-pull-scaling", "rounds", Some("pull"));
    let mut t = Table::new(["family", "n", "push rounds", "pull rounds", "n ln² n"]);
    for fam in families(&push) {
        for p in push.iter().filter(|m| m.family == fam) {
            let q = pull
                .iter()
                .find(|m| m.family == fam && m.n == p.n)
                .map_or("-".to_string(), |m| pm(m));
            let nf = p.n as f64;
            t.push_row([
                fam.to_string(),
                p.n.to_string(),
                pm(p),
                q,
                fmt_f64(nf * nf.ln() * nf.ln()),
            ]);
        }
    }
    out.push_str(&t.to_markdown());
    let _ = writeln!(out);
}

/// Section 3: how well `c · n ln² n` explains each family.
fn fit_section(out: &mut String, ms: &[Measurement]) {
    let _ = writeln!(out, "## log²-n fit quality\n");
    let _ = writeln!(
        out,
        "Least-squares fit of `T = c · n ln² n` per family (log-space \
         residuals, `gossip_analysis::fit`), plus the model-free log-log \
         growth exponent. The theorem is an upper bound: slopes below ~1.35 \
         and bounded constants are consistent with O(n log² n); a slope \
         near 2 would refute it.\n"
    );
    let mut t = Table::new([
        "algorithm",
        "family",
        "c (n ln² n)",
        "log-MSE",
        "log-log slope",
        "r²",
    ]);
    for (exp, alg) in [("E1-push-scaling", "push"), ("E3-pull-scaling", "pull")] {
        let rows = sel(ms, exp, "rounds", Some(alg));
        for fam in families(&rows) {
            let pts: Vec<&Measurement> = rows.iter().filter(|m| m.family == fam).copied().collect();
            if pts.len() < 2 {
                continue;
            }
            let ns: Vec<f64> = pts.iter().map(|m| m.n as f64).collect();
            let ts: Vec<f64> = pts.iter().map(|m| m.mean).collect();
            let fit = fit_model(&ns, &ts, GrowthModel::NLog2N);
            let slope = loglog_exponent(&ns, &ts);
            t.push_row([
                alg.to_string(),
                fam.to_string(),
                fmt_f64(fit.c),
                format!("{:.4}", fit.log_mse),
                format!("{:.3}", slope.slope),
                format!("{:.4}", slope.r2),
            ]);
        }
    }
    out.push_str(&t.to_markdown());
    let _ = writeln!(out);
}

/// Section 4: the full pooled dump — the canonical numbers.
fn dump_section(out: &mut String, all: &[Measurement]) {
    let ms: Vec<&Measurement> = all.iter().filter(|m| !m.wallclock).collect();
    let _ = writeln!(out, "## All pooled measurements\n");
    let _ = writeln!(
        out,
        "Every configuration the battery measures, pooled across seeds. \
         `n` is the experiment's swept size (host n, subgroup k, or missing \
         edges k — see the experiment module docs).\n"
    );
    let mut t = Table::new([
        "experiment",
        "metric",
        "algorithm",
        "family",
        "n",
        "trials",
        "mean",
        "stddev",
        "ci95",
        "min",
        "max",
    ]);
    for m in ms {
        t.push_row([
            m.experiment.clone(),
            m.metric.clone(),
            m.algorithm.clone(),
            m.family.clone(),
            m.n.to_string(),
            m.trials.to_string(),
            fmt_f64(m.mean),
            fmt_f64(m.stddev),
            fmt_f64(m.ci95),
            fmt_f64(m.min),
            fmt_f64(m.max),
        ]);
    }
    out.push_str(&t.to_markdown());
}

/// Appendix: machine-dependent wall-clock observations (phase timings,
/// speedup ratios). Rendered last and excluded from the byte-for-byte
/// reproducibility contract — rerunning on different hardware changes only
/// this section.
fn wallclock_section(out: &mut String, all: &[Measurement]) {
    let ms: Vec<&Measurement> = all.iter().filter(|m| m.wallclock).collect();
    if ms.is_empty() {
        return;
    }
    let _ = writeln!(out, "\n## Appendix: wall-clock observations\n");
    let _ = writeln!(
        out,
        "Machine-dependent timings measured on the machine that generated \
         this file (pooled across the same seeds as everything else). These \
         rows are **outside the byte-for-byte contract** — they are the one \
         section that legitimately differs between hosts. Per-experiment \
         tables under `results/` carry the full per-phase breakdowns.\n"
    );
    let mut t = Table::new([
        "experiment",
        "metric",
        "algorithm",
        "family",
        "n",
        "mean",
        "min",
        "max",
    ]);
    for m in ms {
        t.push_row([
            m.experiment.clone(),
            m.metric.clone(),
            m.algorithm.clone(),
            m.family.clone(),
            m.n.to_string(),
            fmt_f64(m.mean),
            fmt_f64(m.min),
            fmt_f64(m.max),
        ]);
    }
    out.push_str(&t.to_markdown());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row built the way `Report::measure` builds them: raw samples
    /// attached, summary derived from them.
    fn m_raw(alg: &str, fam: &str, n: u64, samples: &[f64]) -> Measurement {
        let mut r = crate::harness::Report::new("E1-push-scaling");
        r.measure("rounds", alg, fam, n, samples);
        r.measurements.pop().unwrap()
    }

    #[test]
    fn pool_concatenates_raw_samples_and_bootstraps_ci() {
        // Two seeds of the same config: pooled sample [10, 20, 30, 40].
        let a = m_raw("push", "star", 64, &[10.0, 20.0]);
        let b = m_raw("push", "star", 64, &[30.0, 40.0]);
        let pooled = pool(&[a, b]);
        assert_eq!(pooled.len(), 1);
        let p = &pooled[0];
        assert_eq!(p.trials, 4);
        assert_eq!(p.samples, vec![10.0, 20.0, 30.0, 40.0]);
        assert!((p.mean - 25.0).abs() < 1e-9);
        assert!((p.stddev - (500.0_f64 / 3.0).sqrt()).abs() < 1e-9);
        // Min/max are the true sample envelope, not a normal approximation.
        assert_eq!((p.min, p.max), (10.0, 40.0));
        // The CI comes from the percentile bootstrap: strictly inside the
        // sample range, deterministic across calls.
        assert!(p.ci95 > 0.0 && p.ci95 < 15.0);
        let again = pool(&[
            m_raw("push", "star", 64, &[10.0, 20.0]),
            m_raw("push", "star", 64, &[30.0, 40.0]),
        ]);
        assert_eq!(p.ci95, again[0].ci95, "bootstrap must be deterministic");
    }

    #[test]
    fn wallclock_rows_are_quarantined_to_the_appendix() {
        let mut r = crate::harness::Report::new("E16-shard-scaling");
        r.measure_scalar("rounds", "pull", "tree+2n", 1024, 6.0);
        r.measure_wallclock_scalar("apply_speedup", "pull-s8", "tree+2n", 1024, 2.4);
        let pooled = pool(&r.measurements);
        let md = render_results(&pooled, &Args::default());
        let dump = md
            .split("## All pooled measurements")
            .nth(1)
            .unwrap()
            .split("## Appendix")
            .next()
            .unwrap();
        assert!(
            !dump.contains("apply_speedup"),
            "wall-clock row leaked into the dump"
        );
        assert!(dump.contains("rounds"));
        let appendix = md
            .split("## Appendix: wall-clock observations")
            .nth(1)
            .unwrap();
        assert!(appendix.contains("apply_speedup"));
        // No wall-clock rows -> no appendix at all.
        let md2 = render_results(&pool(&r.measurements[..1]), &Args::default());
        assert!(!md2.contains("## Appendix"));
    }

    #[test]
    fn pool_keeps_distinct_configs_apart() {
        let rows = vec![
            m_raw("push", "star", 64, &[9.0, 11.0]),
            m_raw("push", "star", 128, &[19.0, 21.0]),
            m_raw("pull", "star", 64, &[29.0, 31.0]),
        ];
        let pooled = pool(&rows);
        assert_eq!(pooled.len(), 3);
        // First-appearance order preserved.
        assert_eq!(pooled[0].n, 64);
        assert_eq!(pooled[1].n, 128);
        assert_eq!(pooled[2].algorithm, "pull");
    }

    #[test]
    fn render_is_deterministic() {
        let rows = vec![
            m_raw("push", "star", 64, &[95.0, 105.0]),
            m_raw("push", "star", 128, &[251.0, 269.0]),
        ];
        let args = Args::default();
        let a = render_results(&pool(&rows), &args);
        let b = render_results(&pool(&rows), &args);
        assert_eq!(a, b);
        assert!(a.contains("# RESULTS"));
        assert!(a.contains("--seed 857536"));
        assert!(a.contains("## All pooled measurements"));
    }
}
