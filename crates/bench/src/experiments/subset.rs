//! E9 — §1's social-group corollary: a connected k-member subgroup running
//! the process restricted to its induced subgraph completes in
//! `O(k log² k)` rounds — independent of the host network's size.

use crate::harness::{mean, Args, Report};
use gossip_analysis::{fmt_f64, Table};
use gossip_core::{convergence_rounds, OnlySubset, Push, SubsetComplete, TrialConfig};
use gossip_graph::traversal::bfs_distances;
use gossip_graph::{generators, ArenaGraph, NodeId};

fn club(host: &ArenaGraph, k: usize, anchor: usize) -> Vec<NodeId> {
    // A BFS ball induces a connected subgraph.
    let dist = bfs_distances(host, NodeId::new(anchor % host.n()));
    let mut members: Vec<NodeId> = (0..host.n())
        .map(NodeId::new)
        .filter(|u| dist[u.index()] != u32::MAX)
        .collect();
    members.sort_by_key(|u| (dist[u.index()], u.0));
    members.truncate(k);
    members
}

/// E9.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E9-subgroup-discovery");
    let trials = args.trials_or(4, 8);
    let host_sizes: Vec<usize> = if args.quick {
        vec![256, 1024]
    } else {
        vec![512, 4096]
    };
    let ks: Vec<usize> = if args.quick {
        vec![16, 32, 64]
    } else {
        vec![16, 32, 64, 128, 256]
    };

    let mut table = Table::new([
        "host n",
        "k",
        "mean rounds",
        "k log² k",
        "rounds / k log² k",
    ]);
    for &host_n in &host_sizes {
        let mut rng = gossip_core::rng::stream_rng(args.seed, 0x50C, host_n as u64);
        let host = generators::watts_strogatz(host_n, 4, 0.05, &mut rng);
        for &k in &ks {
            let members = club(&host, k, 17);
            let rule = OnlySubset::new(Push, host.n(), &members);
            let cfg = TrialConfig {
                trials,
                base_seed: args.seed ^ ((host_n as u64) << 20) ^ k as u64,
                max_rounds: 100_000_000,
            };
            let members_for_check = members.clone();
            let rounds = convergence_rounds(
                &host,
                rule,
                move |_g: &ArenaGraph| SubsetComplete::new(host_n, &members_for_check),
                &cfg,
            );
            report.measure_rounds("push-subset", format!("host-{host_n}"), k as u64, &rounds);
            let m = mean(&rounds);
            let kf = k as f64;
            let bound = kf * kf.ln() * kf.ln();
            table.push_row([
                host_n.to_string(),
                k.to_string(),
                fmt_f64(m),
                fmt_f64(bound),
                fmt_f64(m / bound),
            ]);
        }
    }
    report.note(
        "paper (§1): restricted to a connected k-node induced subgraph, convergence is \
         O(k log² k) w.h.p. — the host size must not matter.",
    );
    report.note(
        "expectation: for fixed k, rows agree across host sizes; the ratio column stays bounded in k.",
    );
    report.table("subgroup completion rounds", table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_all_cells() {
        let args = Args {
            quick: true,
            trials: 2,
            ..Args::default()
        };
        let r = run(&args);
        assert_eq!(r.tables[0].1.len(), 6); // 2 hosts x 3 ks
    }
}
