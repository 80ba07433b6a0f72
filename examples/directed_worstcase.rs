//! Directionality hurts: the two-hop walk on directed graphs (Section 5).
//!
//! Runs the directed pull process on (a) directed cycles — a benign strongly
//! connected family, (b) the paper's Theorem 15 strongly connected
//! construction (expected Ω(n²) rounds), and (c) the Theorem 14 weakly
//! connected construction (Ω(n² log n) rounds), printing how round counts
//! scale against n² — versus the O(n log² n) undirected world.
//!
//! ```text
//! cargo run --release --example directed_worstcase [seed]
//! ```

use discovery_gossip::prelude::*;

fn mean_rounds(g: &DirectedGraph, trials: usize, seed: u64) -> f64 {
    let cfg = TrialConfig {
        trials,
        base_seed: seed,
        max_rounds: 1_000_000_000,
    };
    let rounds = convergence_rounds(g, DirectedPull, ClosureReached::for_graph, &cfg);
    rounds.iter().sum::<u64>() as f64 / rounds.len() as f64
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);

    println!("directed two-hop walk: rounds to reach the transitive closure\n");
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>10}",
        "graph", "n", "rounds", "n²", "rounds/n²"
    );
    for n in [16usize, 32, 64] {
        let g = generators::directed_cycle(n);
        let r = mean_rounds(&g, 8, seed);
        let n2 = (n * n) as f64;
        println!(
            "{:<28} {:>6} {:>12.0} {:>12} {:>10.3}",
            "directed cycle",
            n,
            r,
            n * n,
            r / n2
        );
    }
    for n in [16usize, 32, 64] {
        let g = generators::theorem15_graph(n);
        let r = mean_rounds(&g, 8, seed);
        let n2 = (n * n) as f64;
        println!(
            "{:<28} {:>6} {:>12.0} {:>12} {:>10.3}",
            "Thm 15 (strongly conn.)",
            n,
            r,
            n * n,
            r / n2
        );
    }
    for n in [16usize, 32, 64] {
        let g = generators::theorem14_graph(n);
        let r = mean_rounds(&g, 8, seed);
        let n2ln = (n * n) as f64 * (n as f64).ln();
        println!(
            "{:<28} {:>6} {:>12.0} {:>12.0} {:>10.3}",
            "Thm 14 (weakly conn.)",
            n,
            r,
            n2ln,
            r / n2ln
        );
    }

    // Contrast: the undirected pull process on a cycle of the same size.
    println!();
    for n in [16usize, 32, 64] {
        let g = generators::cycle(n);
        let cfg = TrialConfig {
            trials: 8,
            base_seed: seed,
            max_rounds: 100_000_000,
        };
        let rounds = convergence_rounds(&g, Pull, ComponentwiseComplete::for_graph, &cfg);
        let mean = rounds.iter().sum::<u64>() as f64 / rounds.len() as f64;
        let nf = n as f64;
        println!(
            "{:<28} {:>6} {:>12.0} {:>12.0} {:>10.3}",
            "UNdirected cycle (pull)",
            n,
            mean,
            nf * nf.ln() * nf.ln(),
            mean / (nf * nf.ln() * nf.ln())
        );
    }
    println!("\nratios against the respective bounds stay flat: directionality costs a factor ~n/polylog.");
}
