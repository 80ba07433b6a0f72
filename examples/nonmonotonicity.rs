//! Figure 1(c): adding edges can *slow down* discovery.
//!
//! Computes exact expected convergence times (absorbing Markov chain) for
//! the paper's 4-edge/3-edge pair, cross-checks with Monte Carlo, and then
//! exhaustively searches all 4-node graphs for same-vertex-set
//! counterexamples.
//!
//! ```text
//! cargo run --release --example nonmonotonicity
//! ```

use discovery_gossip::prelude::*;

fn monte_carlo_mean(g: &ArenaGraph, trials: usize) -> (f64, f64) {
    let cfg = TrialConfig {
        trials,
        base_seed: 123,
        max_rounds: 10_000_000,
    };
    let rounds = convergence_rounds(g, Push, ComponentwiseComplete::for_graph, &cfg);
    let s = Summary::of_rounds(&rounds);
    (s.mean, s.ci95)
}

fn main() {
    let (g, h) = generators::nonmonotone_pair();
    println!("Figure 1(c): G = K_1,4 (4 edges), H = K_1,3 (3 edges), H ⊂ G\n");

    for rule in [RuleId::Push, RuleId::Pull] {
        let eg = exact_expected_rounds(&g, rule);
        let eh = exact_expected_rounds(&h, rule);
        println!(
            "{:?}: exact E[T(G)] = {:.4}, exact E[T(H)] = {:.4}  =>  G is {:.2}x slower",
            rule,
            eg,
            eh,
            eg / eh
        );
    }

    println!("\nMonte Carlo cross-check (push, 20k trials):");
    let (mg, cg) = monte_carlo_mean(&g, 20_000);
    let (mh, ch) = monte_carlo_mean(&h, 20_000);
    let (eg, eh) = (
        exact_expected_rounds(&g, RuleId::Push),
        exact_expected_rounds(&h, RuleId::Push),
    );
    println!("  G: measured {mg:.3} ± {cg:.3}   (exact {eg:6.3})");
    println!("  H: measured {mh:.3} ± {ch:.3}   (exact {eh:6.3})");

    println!("\nExhaustive search, all connected 4-node graphs, same vertex set (push):");
    let pairs = find_nonmonotone_pairs(4, RuleId::Push, 0.05);
    for p in pairs.iter().take(6) {
        println!(
            "  E[T] {:.3} for G = {:?}  >  {:.3} for its subgraph H = {:?}",
            p.g_expected, p.g_edges, p.h_expected, p.h_edges
        );
    }
    println!(
        "\n{} same-vertex-set counterexample pairs exist on just 4 nodes — \
         the diamond (K4 - e) vs the 4-cycle is the canonical one.",
        pairs.len()
    );
}
