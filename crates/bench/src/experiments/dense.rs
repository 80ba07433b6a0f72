//! E2 / E4 — Theorems 9 and 13: starting `k` edges short of complete, both
//! processes need `Ω(n log k)` rounds (w.p. `1 - O(e^{-k^{1/4}})`). We fix
//! `n`, sweep `k`, and check rounds track `n ln k` from below.

use crate::harness::{mean, Args, Report};
use gossip_analysis::{fmt_f64, ols, Table};
use gossip_core::{
    convergence_rounds, ComponentwiseComplete, ProposalRule, Pull, Push, TrialConfig,
};
use gossip_graph::{generators, ArenaGraph};

fn sweep<R: ProposalRule<ArenaGraph> + Clone>(
    rule: R,
    n: usize,
    ks: &[u64],
    args: &Args,
    report: &mut Report,
    table: &mut Table,
    label: &str,
) -> (Vec<f64>, Vec<f64>) {
    let trials = args.trials_or(4, 8);
    let mut lnks = Vec::new();
    let mut means = Vec::new();
    for &k in ks {
        let mut rng = gossip_core::rng::stream_rng(args.seed, 0xDE, k);
        let g = generators::complete_minus_k(n, k, &mut rng);
        let cfg = TrialConfig {
            trials,
            base_seed: args.seed ^ k,
            max_rounds: 100_000_000,
        };
        let rounds = convergence_rounds(&g, rule.clone(), ComponentwiseComplete::for_graph, &cfg);
        // The swept size here is k (missing edges), not n.
        report.measure_rounds(label, format!("complete-minus-k-n{n}"), k, &rounds);
        let m = mean(&rounds);
        let nlnk = n as f64 * (k as f64).ln().max(1.0);
        table.push_row([
            label.to_string(),
            k.to_string(),
            fmt_f64(m),
            fmt_f64(nlnk),
            fmt_f64(m / nlnk),
        ]);
        if k >= 2 {
            lnks.push((k as f64).ln());
            means.push(m);
        }
    }
    (lnks, means)
}

/// E2 + E4 in one report (the sweeps share workload generation).
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E2-E4-dense-lowerbound");
    let n = if args.quick { 64 } else { 128 };
    let max_k = (n * (n - 1) / 2 - n) as u64; // keep the graph well connected
    let mut ks: Vec<u64> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256];
    ks.retain(|&k| k <= max_k);
    if !args.quick {
        ks.extend([512, 1024, 2048].iter().filter(|&&k| k <= max_k));
    }

    let mut table = Table::new([
        "process",
        "k missing",
        "mean rounds",
        "n ln k",
        "rounds / n ln k",
    ]);
    let (lx_push, ly_push) = sweep(Push, n, &ks, args, &mut report, &mut table, "push");
    let (lx_pull, ly_pull) = sweep(Pull, n, &ks, args, &mut report, &mut table, "pull");

    // Rounds should grow linearly in ln k at fixed n (the Ω(n log k) shape).
    let push_fit = ols(&lx_push, &ly_push);
    let pull_fit = ols(&lx_pull, &ly_pull);
    report.note(format!(
        "paper: Ω(n log k) lower bound (Theorems 9/13); n fixed at {n}."
    ));
    report.note(format!(
        "rounds vs ln k is near-linear: push slope {:.1} rounds per ln k (r² = {:.4}), \
         pull slope {:.1} (r² = {:.4}); slope/n = {:.3} and {:.3}.",
        push_fit.slope,
        push_fit.r2,
        pull_fit.slope,
        pull_fit.r2,
        push_fit.slope / n as f64,
        pull_fit.slope / n as f64,
    ));
    report.table("rounds from complete-minus-k", table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_both_processes() {
        let args = Args {
            quick: true,
            trials: 2,
            ..Args::default()
        };
        let r = run(&args);
        assert_eq!(r.tables.len(), 1);
        assert!(r.tables[0].1.len() >= 16);
    }
}
