//! The exact Markov solver and the simulation engine must agree: they are
//! two independent implementations of the same stochastic processes, so a
//! Monte Carlo mean falling outside the exact value's confidence band means
//! one of them mis-implements the paper.

use discovery_gossip::prelude::*;

fn mc_mean_ci(g: &ArenaGraph, kind: ProcessKind, trials: usize) -> (f64, f64) {
    let cfg = TrialConfig {
        trials,
        base_seed: 0xE57,
        max_rounds: 1_000_000,
    };
    let rounds = match kind {
        ProcessKind::Push => convergence_rounds(g, Push, ComponentwiseComplete::for_graph, &cfg),
        ProcessKind::Pull => convergence_rounds(g, Pull, ComponentwiseComplete::for_graph, &cfg),
    };
    let s = Summary::of_rounds(&rounds);
    (s.mean, s.ci95)
}

fn check_agreement(g: &ArenaGraph, kind: ProcessKind, trials: usize) {
    let exact = exact_expected_rounds(g, kind);
    let (mean, ci) = mc_mean_ci(g, kind, trials);
    // 1.5x the 95% band: loose enough to be flake-free, tight enough to
    // catch any systematic deviation (wrong replacement semantics, wrong
    // no-op handling, off-by-one rounds all shift the mean by >> this).
    assert!(
        (mean - exact).abs() <= 1.5 * ci + 0.02,
        "{kind:?}: exact {exact:.4} vs MC {mean:.4} ± {ci:.4}"
    );
}

#[test]
fn push_agrees_on_figure_1c_graphs() {
    let (g, h) = generators::nonmonotone_pair();
    check_agreement(&g, ProcessKind::Push, 6000);
    check_agreement(&h, ProcessKind::Push, 6000);
}

#[test]
fn pull_agrees_on_figure_1c_graphs() {
    let (g, h) = generators::nonmonotone_pair();
    check_agreement(&g, ProcessKind::Pull, 6000);
    check_agreement(&h, ProcessKind::Pull, 6000);
}

#[test]
fn push_agrees_on_paths_and_cycles() {
    check_agreement(&generators::path(4), ProcessKind::Push, 6000);
    check_agreement(&generators::path(5), ProcessKind::Push, 4000);
    check_agreement(&generators::cycle(5), ProcessKind::Push, 4000);
}

#[test]
fn pull_agrees_on_paths_and_cycles() {
    check_agreement(&generators::path(4), ProcessKind::Pull, 6000);
    check_agreement(&generators::cycle(4), ProcessKind::Pull, 6000);
}

#[test]
fn monte_carlo_reproduces_nonmonotonicity() {
    // The Figure 1(c) inequality is visible in simulation, not just theory.
    let (g, h) = generators::nonmonotone_pair();
    let (mg, cg) = mc_mean_ci(&g, ProcessKind::Push, 8000);
    let (mh, ch) = mc_mean_ci(&h, ProcessKind::Push, 8000);
    assert!(
        mg - cg > mh + ch,
        "non-monotonicity washed out: G {mg}±{cg} vs H {mh}±{ch}"
    );
}

#[test]
fn spanning_pair_nonmonotone_in_simulation() {
    let (g, h) = generators::nonmonotone_pair_spanning();
    let (mg, cg) = mc_mean_ci(&g, ProcessKind::Push, 12000);
    let (mh, ch) = mc_mean_ci(&h, ProcessKind::Push, 12000);
    assert!(
        mg - cg > mh + ch,
        "diamond/C4 non-monotonicity washed out: {mg}±{cg} vs {mh}±{ch}"
    );
}
