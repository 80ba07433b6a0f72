//! E7 — Figure 1(c): non-monotonicity of the processes. Exact expected
//! convergence times from the absorbing-chain solver, a Monte Carlo
//! cross-check, and the exhaustive 4-node counterexample search.

use crate::harness::{Args, Report};
use gossip_analysis::{fmt_f64, Summary, Table};
use gossip_core::{convergence_rounds, ComponentwiseComplete, RuleId, TrialConfig};
use gossip_graph::{generators, ArenaGraph};
use gossip_model::{exact_expected_rounds, find_nonmonotone_pairs};

fn mc(g: &ArenaGraph, rule: RuleId, trials: usize, seed: u64) -> Vec<u64> {
    let cfg = TrialConfig {
        trials,
        base_seed: seed,
        max_rounds: 100_000_000,
    };
    convergence_rounds(g, rule, ComponentwiseComplete::for_graph, &cfg)
}

/// E7.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E7-nonmonotonicity");
    let trials = args.trials_or(2_000, 20_000);

    // Part 1: the Figure 1(c) pair, exact + Monte Carlo agreement.
    let (g, h) = generators::nonmonotone_pair();
    let mut t = Table::new([
        "graph",
        "edges",
        "process",
        "exact E[T]",
        "MC mean",
        "MC ±95%",
    ]);
    for (name, family, gr) in [("G = K_1,4", "K_1,4", &g), ("H = K_1,3 ⊂ G", "K_1,3", &h)] {
        for rule in [RuleId::Push, RuleId::Pull] {
            let algorithm = rule.name();
            let exact = exact_expected_rounds(gr, rule);
            let rounds = mc(gr, rule, trials, args.seed);
            report.measure_scalar("exact_rounds", algorithm, family, gr.n() as u64, exact);
            report.measure_rounds(algorithm, family, gr.n() as u64, &rounds);
            let s = Summary::of_rounds(&rounds);
            t.push_row([
                name.to_string(),
                gr.m().to_string(),
                format!("{rule:?}"),
                format!("{exact:.4}"),
                fmt_f64(s.mean),
                fmt_f64(s.ci95),
            ]);
        }
    }
    report.table("Figure 1(c) pair: exact vs simulated", t);

    // Part 2: the same-vertex-set witnesses on 4 nodes, exhaustively.
    let mut st = Table::new(["G edges", "E[T(G)]", "H edges (H ⊂ G)", "E[T(H)]", "gap"]);
    // A pair counts when E[T(G)] exceeds E[T(H)] by more than this many rounds.
    let tolerance = 0.05;
    let pairs = find_nonmonotone_pairs(4, RuleId::Push, tolerance);
    report.measure_scalar(
        "counterexample_pairs",
        "push",
        "4-node-exhaustive",
        4,
        pairs.len() as f64,
    );
    for p in pairs.iter().take(8) {
        st.push_row([
            format!("{:?}", p.g_edges),
            format!("{:.4}", p.g_expected),
            format!("{:?}", p.h_edges),
            format!("{:.4}", p.h_expected),
            format!("{:.4}", p.gap()),
        ]);
    }
    report.note(format!(
        "paper (Fig 1c): a 4-edge graph converging slower than its 3-edge subgraph; \
         exact values: E[T_push(K_1,4)] = {:.4} > E[T_push(K_1,3)] = {:.4}.",
        exact_expected_rounds(&g, RuleId::Push),
        exact_expected_rounds(&h, RuleId::Push),
    ));
    report.note(format!(
        "exhaustive search over all connected 4-node graphs found {} same-vertex-set \
         counterexample pairs for push (diamond vs 4-cycle is canonical) and {} for pull, \
         counting a pair when E[T(G)] > E[T(H)] + {tolerance} rounds.",
        pairs.len(),
        find_nonmonotone_pairs(4, RuleId::Pull, tolerance).len()
    ));
    report.table("same-vertex-set counterexamples (push, 4 nodes)", st);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_inequality() {
        let args = Args {
            quick: true,
            trials: 500,
            ..Args::default()
        };
        let r = run(&args);
        assert_eq!(r.tables.len(), 2);
        assert!(!r.tables[1].1.is_empty());
    }
}
