//! E5 / E6 — Section 5: the directed two-hop walk.
//!
//! * Upper bound (Thm 14): `O(n² log n)` on any digraph — checked on
//!   directed cycles and strongly connected G(n, p).
//! * Weakly connected lower bound (Thm 14): the paper's explicit family
//!   needs `Ω(n² log n)`.
//! * Strongly connected lower bound (Thm 15): the Figure 3 family needs
//!   expected `Ω(n²)`.

use crate::harness::{mean, Args, Report};
use gossip_analysis::{fmt_f64, loglog_exponent, Table};
use gossip_core::{convergence_rounds, ClosureReached, DirectedPull, TrialConfig};
use gossip_graph::{generators, DirectedGraph};

fn sample_rounds(g: &DirectedGraph, trials: usize, seed: u64) -> Vec<u64> {
    let cfg = TrialConfig {
        trials,
        base_seed: seed,
        max_rounds: 2_000_000_000,
    };
    convergence_rounds(g, DirectedPull, ClosureReached::for_graph, &cfg)
}

/// E5 + E6.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E5-E6-directed");
    let trials = args.trials_or(4, 8);
    let sizes: Vec<usize> = if args.quick {
        vec![8, 16, 32]
    } else {
        vec![16, 32, 64, 128]
    };

    let mut table = Table::new([
        "family",
        "n",
        "mean rounds",
        "n²",
        "n² ln n",
        "rounds/n²",
        "rounds/(n² ln n)",
    ]);
    let mut exponents = Table::new(["family", "log-log slope", "r²"]);

    #[allow(clippy::type_complexity)] // one-off harness table
    let families: Vec<(&str, Box<dyn Fn(usize) -> DirectedGraph>)> = vec![
        ("directed-cycle", Box::new(generators::directed_cycle)),
        (
            "gnp-strong(8/n)",
            Box::new(move |n| {
                let p = (8.0 / n as f64).min(0.9);
                generators::directed_gnp_strong(
                    n,
                    p,
                    &mut gossip_core::rng::stream_rng(7, 0xD1, n as u64),
                )
            }),
        ),
        ("thm15-strong", Box::new(generators::theorem15_graph)),
        (
            "thm14-weak",
            Box::new(|n| generators::theorem14_graph(n.next_multiple_of(4))),
        ),
    ];

    for (name, make) in &families {
        let mut ns = Vec::new();
        let mut ts = Vec::new();
        for &n in &sizes {
            let g = make(n);
            let n_actual = g.n();
            let rounds = sample_rounds(&g, trials, args.seed ^ (n as u64) << 4);
            report.measure_rounds("directed-pull", *name, n_actual as u64, &rounds);
            let r = mean(&rounds);
            let nf = n_actual as f64;
            table.push_row([
                name.to_string(),
                n_actual.to_string(),
                fmt_f64(r),
                fmt_f64(nf * nf),
                fmt_f64(nf * nf * nf.ln()),
                fmt_f64(r / (nf * nf)),
                fmt_f64(r / (nf * nf * nf.ln())),
            ]);
            ns.push(nf);
            ts.push(r);
        }
        let fit = loglog_exponent(&ns, &ts);
        exponents.push_row([
            name.to_string(),
            fmt_f64(fit.slope),
            format!("{:.4}", fit.r2),
        ]);
    }

    report.note(
        "paper: O(n² log n) upper bound on any digraph; Ω(n² log n) weakly connected \
                 and Ω(n²) strongly connected lower-bound families (Theorems 14/15).",
    );
    report.note(
        "expectation: the adversarial families show the quadratic law — thm15 at \
                 log-log slope ≈ 2.0 with rounds/n² ≈ 0.8 flat, thm14 at slope ≈ 2.1 \
                 (the extra log shows as a mild upward drift in rounds/n²). Benign strongly \
                 connected digraphs (cycles, dense G(n,p)) converge far below the worst case, \
                 as the upper bound permits.",
    );
    report.table("directed two-hop walk: rounds to transitive closure", table);
    report.table("empirical growth exponents", exponents);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_all_families() {
        let args = Args {
            quick: true,
            trials: 2,
            ..Args::default()
        };
        let r = run(&args);
        assert_eq!(r.tables[0].1.len(), 12); // 4 families x 3 sizes
        assert_eq!(r.tables[1].1.len(), 4);
    }
}
