//! E10 — §1's comparison table: the gossip processes against Name Dropper,
//! Random Pointer Jump, the bandwidth-throttled Name Dropper, and flooding.
//! The paper's pitch: polylog-round algorithms pay Θ(n log n)-bit messages;
//! the gossip processes pay rounds to keep every message at O(log n) bits.

use crate::harness::{Args, Report};
use gossip_analysis::{fmt_f64, Table};
use gossip_baselines::{
    id_bits, DiscoveryAlgorithm, Flooding, Knowledge, NameDropper, PointerJump,
    ThrottledNameDropper,
};
use gossip_core::{convergence_rounds, ComponentwiseComplete, Pull, Push, TrialConfig};
use gossip_graph::generators;

struct Row {
    algorithm: String,
    rounds: f64,
    max_msg_bits: u64,
    total_bits: f64,
}

fn process_row(name: &str, rule_rounds: f64, ids_per_node_round: u64, n: usize) -> Row {
    // Accounting convention for the graph-model processes: push sends two
    // one-id introductions per node-round; pull sends a request + one-id
    // reply + announce (identity carried in headers) — two ids transferred.
    let bits = id_bits(n);
    Row {
        algorithm: name.to_string(),
        rounds: rule_rounds,
        max_msg_bits: bits,
        total_bits: rule_rounds * n as f64 * (ids_per_node_round * bits) as f64,
    }
}

/// E10.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E10-baseline-comparison");
    let trials = args.trials_or(3, 6);
    let sizes: Vec<usize> = if args.quick {
        vec![64]
    } else {
        vec![64, 256, 1024]
    };

    let mut table = Table::new([
        "n",
        "algorithm",
        "rounds",
        "max message (bits)",
        "total traffic (Mbit)",
    ]);
    for &n in &sizes {
        let mut rng = gossip_core::rng::stream_rng(args.seed, 0xBA5E, n as u64);
        let g = generators::tree_plus_random_edges(n, 2 * n as u64, &mut rng);
        let cfg = TrialConfig {
            trials,
            base_seed: args.seed ^ n as u64,
            max_rounds: 100_000_000,
        };

        let mut rows: Vec<Row> = Vec::new();
        // Gossip processes (graph model).
        let push = convergence_rounds(&g, Push, ComponentwiseComplete::for_graph, &cfg);
        report.measure_rounds("push", "tree+2n", n as u64, &push);
        rows.push(process_row(
            "push (this paper)",
            crate::harness::mean(&push),
            2,
            n,
        ));
        let pull = convergence_rounds(&g, Pull, ComponentwiseComplete::for_graph, &cfg);
        report.measure_rounds("pull", "tree+2n", n as u64, &pull);
        rows.push(process_row(
            "pull (this paper)",
            crate::harness::mean(&pull),
            2,
            n,
        ));

        // Knowledge-model baselines, averaged over the same trial count.
        let mut nd_acc = (0.0, 0u64, 0.0);
        let mut pj_acc = (0.0, 0u64, 0.0);
        let mut th_acc = (0.0, 0u64, 0.0);
        for t in 0..trials {
            let seed = gossip_core::rng::trial_seed(args.seed ^ n as u64, t);
            let k = Knowledge::from_undirected(&g);
            for (acc, out) in [
                (
                    &mut nd_acc,
                    NameDropper::new(k.clone(), seed).run_to_completion(1_000_000),
                ),
                (
                    &mut pj_acc,
                    PointerJump::new(k.clone(), seed).run_to_completion(1_000_000),
                ),
                (
                    &mut th_acc,
                    ThrottledNameDropper::new(k.clone(), 1, seed).run_to_completion(10_000_000),
                ),
            ] {
                assert!(out.complete, "baseline failed to complete at n={n}");
                acc.0 += out.rounds as f64 / trials as f64;
                acc.1 = acc.1.max(out.max_message_bits);
                acc.2 += out.total_bits as f64 / trials as f64;
            }
        }
        rows.push(Row {
            algorithm: "Name Dropper [HLL99]".into(),
            rounds: nd_acc.0,
            max_msg_bits: nd_acc.1,
            total_bits: nd_acc.2,
        });
        rows.push(Row {
            algorithm: "Random Pointer Jump".into(),
            rounds: pj_acc.0,
            max_msg_bits: pj_acc.1,
            total_bits: pj_acc.2,
        });
        rows.push(Row {
            algorithm: "throttled ND (B=1)".into(),
            rounds: th_acc.0,
            max_msg_bits: th_acc.1,
            total_bits: th_acc.2,
        });

        // Flooding (deterministic).
        let fl = Flooding::new(&g).run_to_completion(100_000);
        assert!(fl.complete);
        rows.push(Row {
            algorithm: "flooding".into(),
            rounds: fl.rounds as f64,
            max_msg_bits: fl.max_message_bits,
            total_bits: fl.total_bits as f64,
        });

        for r in rows {
            report.measure_scalar(
                "mean_rounds",
                r.algorithm.as_str(),
                "tree+2n",
                n as u64,
                r.rounds,
            );
            report.measure_scalar(
                "max_message_bits",
                r.algorithm.as_str(),
                "tree+2n",
                n as u64,
                r.max_msg_bits as f64,
            );
            report.measure_scalar(
                "total_traffic_mbit",
                r.algorithm.as_str(),
                "tree+2n",
                n as u64,
                r.total_bits / 1e6,
            );
            table.push_row([
                n.to_string(),
                r.algorithm,
                fmt_f64(r.rounds),
                r.max_msg_bits.to_string(),
                fmt_f64(r.total_bits / 1e6),
            ]);
        }
    }

    report.note(
        "paper (§1): Name Dropper completes in O(log² n) rounds but ships Θ(n log n)-bit \
         messages; the gossip processes hold every message at O(log n) bits and pay \
         O(n log² n) rounds. Total traffic lands within an order of magnitude either way.",
    );
    report.table("rounds vs bandwidth", table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_all_algorithms() {
        let args = Args {
            quick: true,
            trials: 2,
            ..Args::default()
        };
        let r = run(&args);
        assert_eq!(r.tables[0].1.len(), 6);
    }
}
