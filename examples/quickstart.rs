//! Quickstart: run both discovery processes on a random tree and watch the
//! minimum degree climb until the graph is complete.
//!
//! ```text
//! cargo run --release --example quickstart [n] [seed]
//! ```

use discovery_gossip::prelude::*;
use gossip_core::{run_engine_listened, Chain, RuleId, StopWhen};

fn run(g0: &ArenaGraph, rule: RuleId, seed: u64) {
    let n = g0.n() as f64;
    let mut check = ComponentwiseComplete::for_graph(g0);
    let mut recorder = RoundRecorder::probing(|g: &ArenaGraph| vec![g.min_degree() as u64]);
    let mut engine = Engine::new(g0.clone(), rule, seed);
    let Ok(out) = run_engine_listened(
        &mut engine,
        &mut Chain(&mut recorder, StopWhen(&mut check)),
        100_000_000,
    );
    assert!(out.converged && engine.graph().is_complete());

    println!("\n== {rule} discovery ==");
    println!(
        "{:>10} {:>10} {:>8} {:>8}",
        "round", "edges", "min-deg", "added"
    );
    // Round 1, then every 2n rounds.
    let stride = (g0.n() as u64 * 2).max(1);
    let rows: Vec<_> = recorder
        .rows()
        .into_iter()
        .filter(|row| row.round == 1 || row.round.is_multiple_of(stride))
        .collect();
    for row in rows.iter().take(12) {
        println!(
            "{:>10} {:>10} {:>8} {:>8}",
            row.round, row.m, row.probe[0], row.stats.added
        );
    }
    if rows.len() > 12 {
        println!("{:>10}", "...");
    }
    println!(
        "converged in {} rounds (n log² n = {:.0}, ratio = {:.3})",
        out.rounds,
        n * n.ln() * n.ln(),
        out.rounds as f64 / (n * n.ln() * n.ln())
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(128);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    let mut rng = gossip_core::rng::stream_rng(seed, 0, 0);
    let g0 = generators::random_tree(n, &mut rng);
    println!(
        "start: random tree, n = {n}, m = {}, min degree = {}",
        g0.m(),
        g0.min_degree()
    );

    run(&g0, RuleId::Push, seed);
    run(&g0, RuleId::Pull, seed);
}
