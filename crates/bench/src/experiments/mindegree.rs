//! E8 — the proofs' progress measure (Lemmas 5–7 for push, 10–11 for pull):
//! the minimum degree grows by a factor 9/8 every `O(n log n)` rounds.
//!
//! The `n log n` phase cost binds in the **dense regime** (`δ0 = Θ(n)`):
//! each helper adds a useful edge with probability `Θ(1/n)` per round and
//! `Θ(δ0)` new edges are needed, so we sweep G(n, 1/4) and check rounds
//! against `n ln n`. For contrast we also sweep sparse regular-ish graphs,
//! where doubling is exponentially easier (`O(log n)` — the bound is a
//! worst case over all densities, not tight everywhere). We also trace the
//! strongly/weakly-tied neighbor populations the case analysis walks
//! through.

use crate::harness::{geometric_sizes, mean, Args, Report};
use gossip_analysis::{fmt_f64, loglog_exponent, Table};
use gossip_core::diagnostics::tie_stats;
use gossip_core::{
    convergence_rounds, Engine, MinDegreeAtLeast, ProposalRule, Pull, Push, TrialConfig,
};
use gossip_graph::{generators, ArenaGraph};

/// Which density regime to sweep.
#[derive(Clone, Copy)]
enum Regime {
    /// G(n, 1/4): δ0 = Θ(n); target δ0 · 9/8 — the lemma's binding case.
    Dense,
    /// Random regular-ish d = 4; target 2 δ0 — the easy sparse case.
    Sparse,
}

fn degree_growth_sweep<R: ProposalRule<ArenaGraph> + Clone>(
    rule: R,
    label: &str,
    regime: Regime,
    args: &Args,
    report: &mut Report,
    table: &mut Table,
) -> (Vec<f64>, Vec<f64>) {
    let trials = args.trials_or(4, 8);
    let sizes = if args.quick {
        geometric_sizes(64, 3)
    } else {
        geometric_sizes(64, 5)
    };
    let mut ns = Vec::new();
    let mut ts = Vec::new();
    for &n in &sizes {
        let mut rng = gossip_core::rng::stream_rng(args.seed, 0x8E, n as u64);
        let g = match regime {
            Regime::Dense => generators::gnp_connected(n, 0.25, &mut rng),
            Regime::Sparse => generators::random_regular_ish(n, 4, &mut rng),
        };
        let delta0 = g.min_degree();
        let target = match regime {
            Regime::Dense => (delta0 * 9).div_ceil(8),
            Regime::Sparse => 2 * delta0,
        };
        let cfg = TrialConfig {
            trials,
            base_seed: args.seed ^ n as u64,
            max_rounds: 100_000_000,
        };
        let rounds = convergence_rounds(
            &g,
            rule.clone(),
            |_g: &ArenaGraph| MinDegreeAtLeast::new(target),
            &cfg,
        );
        let (algorithm, family) = label.split_once(' ').expect("label is `process regime`");
        report.measure_rounds(algorithm, family.replace(' ', "-"), n as u64, &rounds);
        let m = mean(&rounds);
        let nf = n as f64;
        table.push_row([
            label.to_string(),
            n.to_string(),
            delta0.to_string(),
            target.to_string(),
            fmt_f64(m),
            fmt_f64(nf * nf.ln()),
            fmt_f64(m / (nf * nf.ln())),
        ]);
        ns.push(nf);
        ts.push(m);
    }
    (ns, ts)
}

/// E8.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E8-mindegree-growth");

    let mut table = Table::new([
        "workload",
        "n",
        "δ0",
        "target δ",
        "mean rounds",
        "n ln n",
        "rounds/(n ln n)",
    ]);
    let (ns_pd, ts_pd) = degree_growth_sweep(
        Push,
        "push dense 9/8",
        Regime::Dense,
        args,
        &mut report,
        &mut table,
    );
    let (ns_qd, ts_qd) = degree_growth_sweep(
        Pull,
        "pull dense 9/8",
        Regime::Dense,
        args,
        &mut report,
        &mut table,
    );
    let (ns_ps, ts_ps) = degree_growth_sweep(
        Push,
        "push sparse 2x",
        Regime::Sparse,
        args,
        &mut report,
        &mut table,
    );
    let (ns_qs, ts_qs) = degree_growth_sweep(
        Pull,
        "pull sparse 2x",
        Regime::Sparse,
        args,
        &mut report,
        &mut table,
    );
    report.note(
        "paper: δ grows by 9/8 within O(n log n) rounds (Lemmas 5–7/10–11). The bound binds in \
         the dense regime (δ0 = Θ(n)); sparse graphs double far faster — the lemma is a worst \
         case across densities.",
    );
    for (label, ns, ts) in [
        ("push dense", &ns_pd, &ts_pd),
        ("pull dense", &ns_qd, &ts_qd),
        ("push sparse", &ns_ps, &ts_ps),
        ("pull sparse", &ns_qs, &ts_qs),
    ] {
        let f = loglog_exponent(ns, ts);
        report.note(format!(
            "{label}: log-log slope {:.3} (r² = {:.4}).",
            f.slope, f.r2
        ));
    }
    report.table("rounds until the min-degree target", table);

    // Tie-structure trace: the population split the Lemma 5–7 case analysis
    // tracks, sampled on the minimum-degree node of a random tree.
    let n = if args.quick { 128 } else { 512 };
    let mut rng = gossip_core::rng::stream_rng(args.seed, 0x71E, n as u64);
    let g0 = generators::random_tree(n, &mut rng);
    let delta0 = g0.min_degree();
    let mut engine = Engine::new(g0, Push, args.seed);
    let mut tie_table = Table::new([
        "round",
        "min-deg node",
        "deg(u)",
        "|N²(u)|",
        "strongly tied",
        "weakly tied",
    ]);
    let stride = (n as u64 / 2).max(1);
    for snapshot in 0..10u64 {
        let g = engine.graph();
        let u = g
            .nodes()
            .min_by_key(|&u| g.degree(u))
            .expect("nonempty graph");
        let s = tie_stats(g, u, delta0);
        tie_table.push_row([
            (snapshot * stride).to_string(),
            u.to_string(),
            s.n1_size.to_string(),
            s.n2_size.to_string(),
            s.strongly_tied.to_string(),
            s.weakly_tied.to_string(),
        ]);
        if g.is_complete() {
            break;
        }
        for _ in 0..stride {
            engine.step();
        }
    }
    report.table(
        format!("tie structure around the min-degree node (random tree, n = {n}, δ0 = {delta0})"),
        tie_table,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_completes() {
        let args = Args {
            quick: true,
            trials: 2,
            ..Args::default()
        };
        let r = run(&args);
        assert_eq!(r.tables.len(), 2);
    }
}
