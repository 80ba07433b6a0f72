//! E1 / E3 — Theorems 8 and 12: both processes complete any connected graph
//! in `O(n log² n)` rounds. We sweep `n` across topologies, report mean
//! convergence rounds, and fit the paper's candidate growth models.

use crate::harness::{geometric_sizes, Args, Report};
use gossip_analysis::{fmt_f64, loglog_exponent, rank_models, GrowthModel, Summary, Table};
use gossip_core::{
    convergence_rounds, ComponentwiseComplete, ProposalRule, Pull, Push, TrialConfig,
};
use gossip_graph::{generators, ArenaGraph};

/// The topology sweep shared by E1/E3.
fn family(name: &str, n: usize, seed: u64) -> ArenaGraph {
    let mut rng = gossip_core::rng::stream_rng(seed, 0xFA, n as u64);
    match name {
        "path" => generators::path(n),
        "cycle" => generators::cycle(n),
        "star" => generators::star(n),
        "random-tree" => generators::random_tree(n, &mut rng),
        "sparse-2n" => generators::tree_plus_random_edges(n, 2 * n as u64, &mut rng),
        "hypercube" => generators::hypercube(n.ilog2()),
        other => panic!("unknown family {other}"),
    }
}

const FAMILIES: [&str; 6] = [
    "path",
    "cycle",
    "star",
    "random-tree",
    "sparse-2n",
    "hypercube",
];

fn run_process<R: ProposalRule<ArenaGraph> + Clone>(id: &str, rule: R, args: &Args) -> Report {
    let mut report = Report::new(id);
    let algorithm = if id.starts_with("E1") { "push" } else { "pull" };
    let sizes = if args.quick {
        geometric_sizes(32, 3)
    } else {
        geometric_sizes(64, 5) // 64 .. 1024
    };
    let trials = if args.trials > 0 {
        args.trials
    } else if args.quick {
        4
    } else {
        8
    };

    let mut table = Table::new([
        "family",
        "n",
        "mean rounds",
        "ci95",
        "n log² n",
        "rounds / n log² n",
    ]);
    let mut fit_table = Table::new([
        "family",
        "best model",
        "c (best)",
        "c for n log² n",
        "log-log slope",
    ]);

    for fam in FAMILIES {
        let mut ns = Vec::new();
        let mut ts = Vec::new();
        for &n in &sizes {
            let g = family(fam, n, args.seed);
            let n_actual = g.n(); // hypercube rounds n to a power of two
            let cfg = TrialConfig {
                trials,
                base_seed: args.seed ^ (n as u64) << 8,
                max_rounds: 100_000_000,
                parallel: true,
            };
            let rounds =
                convergence_rounds(&g, rule.clone(), ComponentwiseComplete::for_graph, &cfg);
            report.measure_rounds(algorithm, fam, n_actual as u64, &rounds);
            let s = Summary::of_rounds(&rounds);
            let nf = n_actual as f64;
            let bound = nf * nf.ln() * nf.ln();
            table.push_row([
                fam.to_string(),
                n_actual.to_string(),
                fmt_f64(s.mean),
                fmt_f64(s.ci95),
                fmt_f64(bound),
                fmt_f64(s.mean / bound),
            ]);
            ns.push(nf);
            ts.push(s.mean);
        }
        let ranked = rank_models(&ns, &ts);
        let best = ranked[0];
        let nlog2 = ranked
            .iter()
            .find(|f| f.model == GrowthModel::NLog2N)
            .unwrap();
        let slope = loglog_exponent(&ns, &ts);
        fit_table.push_row([
            fam.to_string(),
            best.model.label().to_string(),
            fmt_f64(best.c),
            fmt_f64(nlog2.c),
            format!("{:.3} (r²={:.4})", slope.slope, slope.r2),
        ]);
    }

    report.note(format!(
        "paper: O(n log² n) w.h.p. for any connected graph (Theorem {}).",
        if id.starts_with("E1") {
            "8, push"
        } else {
            "12, pull"
        }
    ));
    report.note(
        "expectation: rounds / n log² n stays bounded (typically drifting down — \
         the theorem's envelope is loose by up to a log factor; the lower bound is Ω(n log n)).",
    );
    report.table("convergence rounds", table);
    report.table("model fits per family", fit_table);
    report
}

/// E1: push / triangulation scaling.
pub fn run_push(args: &Args) -> Report {
    run_process("E1-push-scaling", Push, args)
}

/// E3: pull / two-hop-walk scaling.
pub fn run_pull(args: &Args) -> Report {
    run_process("E3-pull-scaling", Pull, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_full_tables() {
        let args = Args {
            quick: true,
            trials: 2,
            ..Args::default()
        };
        let r = run_push(&args);
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[0].1.len(), FAMILIES.len() * 3);
        assert_eq!(r.tables[1].1.len(), FAMILIES.len());
        assert_eq!(r.measurements.len(), FAMILIES.len() * 3);
        assert!(r.measurements.iter().all(|m| m.algorithm == "push"));
    }
}
