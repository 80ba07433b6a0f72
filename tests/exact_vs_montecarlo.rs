//! The exact solver and the simulation engines must agree. The solver
//! weighs the protocol kernels' choice trees (`gossip_model::markov`); the
//! engines run the fast `ProposalRule`s, which `kernel_equivalence` ties to
//! the same kernels draw for draw. A Monte Carlo mean falling outside the
//! exact value's confidence band means the solver's reading of the choice
//! tree, or the engines' round semantics, is wrong.

use discovery_gossip::prelude::*;

fn mc_mean_ci(g: &ArenaGraph, rule: RuleId, trials: usize) -> (f64, f64) {
    let cfg = TrialConfig {
        trials,
        base_seed: 0xE57,
        max_rounds: 1_000_000,
    };
    let rounds = convergence_rounds(g, rule, ComponentwiseComplete::for_graph, &cfg);
    let s = Summary::of_rounds(&rounds);
    (s.mean, s.ci95)
}

fn check_agreement(g: &ArenaGraph, rule: RuleId, trials: usize) {
    let exact = exact_expected_rounds(g, rule);
    let (mean, ci) = mc_mean_ci(g, rule, trials);
    // 1.5x the 95% band: loose enough to be flake-free, tight enough to
    // catch any systematic deviation (wrong replacement semantics, wrong
    // no-op handling, off-by-one rounds all shift the mean by >> this).
    assert!(
        (mean - exact).abs() <= 1.5 * ci + 0.02,
        "{rule}: exact {exact:.4} vs MC {mean:.4} ± {ci:.4}"
    );
}

fn agrees_on_figure_1c_graphs(rule: RuleId) {
    let (g, h) = generators::nonmonotone_pair();
    check_agreement(&g, rule, 6000);
    check_agreement(&h, rule, 6000);
}

fn agrees_on_paths_and_cycles(rule: RuleId) {
    check_agreement(&generators::path(4), rule, 6000);
    check_agreement(&generators::path(5), rule, 4000);
    check_agreement(&generators::cycle(4), rule, 6000);
    check_agreement(&generators::cycle(5), rule, 4000);
}

// One test per registered rule and case, so a failure names its rule.
#[test]
fn push_agrees_on_figure_1c_graphs() {
    agrees_on_figure_1c_graphs(RuleId::Push);
}

#[test]
fn pull_agrees_on_figure_1c_graphs() {
    agrees_on_figure_1c_graphs(RuleId::Pull);
}

#[test]
fn hybrid_agrees_on_figure_1c_graphs() {
    agrees_on_figure_1c_graphs(RuleId::Hybrid);
}

#[test]
fn push_agrees_on_paths_and_cycles() {
    agrees_on_paths_and_cycles(RuleId::Push);
}

#[test]
fn pull_agrees_on_paths_and_cycles() {
    agrees_on_paths_and_cycles(RuleId::Pull);
}

#[test]
fn hybrid_agrees_on_paths_and_cycles() {
    agrees_on_paths_and_cycles(RuleId::Hybrid);
}

#[test]
fn monte_carlo_reproduces_nonmonotonicity() {
    // The Figure 1(c) inequality is visible in simulation, not just theory.
    let (g, h) = generators::nonmonotone_pair();
    let (mg, cg) = mc_mean_ci(&g, RuleId::Push, 8000);
    let (mh, ch) = mc_mean_ci(&h, RuleId::Push, 8000);
    assert!(
        mg - cg > mh + ch,
        "non-monotonicity washed out: G {mg}±{cg} vs H {mh}±{ch}"
    );
}

#[test]
fn spanning_pair_nonmonotone_in_simulation() {
    let (g, h) = generators::nonmonotone_pair_spanning();
    let (mg, cg) = mc_mean_ci(&g, RuleId::Push, 12000);
    let (mh, ch) = mc_mean_ci(&h, RuleId::Push, 12000);
    assert!(
        mg - cg > mh + ch,
        "diamond/C4 non-monotonicity washed out: {mg}±{cg} vs {mh}±{ch}"
    );
}

/// Every labelled graph on 2..=5 nodes under `rule`, plus every 4-node
/// counterexample pair at tolerance 0.05, folded into one FNV-1a digest of
/// the values' bit patterns: a solver change that moves any value by one
/// ulp, or reorders the pairs, moves the digest.
fn exact_digest(rules: &[RuleId]) -> u64 {
    let mut h = discovery_gossip::analysis::Fnv1a::new();
    for &rule in rules {
        for n in 2..=5u32 {
            let pairs: Vec<(u32, u32)> = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .collect();
            for mask in 0u32..1 << pairs.len() {
                let edges = (0..pairs.len())
                    .filter(|k| mask >> k & 1 == 1)
                    .map(|k| pairs[k]);
                let g = ArenaGraph::from_edges(n as usize, edges);
                h.write_u64(exact_expected_rounds(&g, rule).to_bits());
            }
        }
        for p in find_nonmonotone_pairs(4, rule, 0.05) {
            for &(a, b) in p.g_edges.iter().chain(&p.h_edges) {
                h.write_u64(a as u64).write_u64(b as u64);
            }
            h.write_u64(p.g_expected.to_bits())
                .write_u64(p.h_expected.to_bits());
        }
    }
    h.finish()
}

#[test]
fn exact_values_are_pinned_bit_for_bit() {
    assert_eq!(
        exact_digest(&[RuleId::Push, RuleId::Pull]),
        0x8d5d_950e_6420_7d9e
    );
}

#[test]
fn hybrid_exact_values_are_pinned_bit_for_bit() {
    assert_eq!(exact_digest(&[RuleId::Hybrid]), 0x0744_c4ea_7a83_0a28);
}
