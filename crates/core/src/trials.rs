//! Monte Carlo trial batches.
//!
//! Convergence-time distributions are what every experiment reports, so the
//! crate ships one well-tested way to run `T` independent trials of the same
//! configuration: trial `t` gets seed `trial_seed(base_seed, t)`, its own
//! clone of the initial graph, and runs to convergence. Trials are
//! independent, so they parallelize across rayon with zero coordination;
//! within a trial the engine stays sequential (per-round work is O(n)).

use crate::builder::EngineBuilder;
use crate::convergence::ConvergenceCheck;
use crate::engine::{Parallelism, RunOutcome};
use crate::process::{GossipGraph, ProposalRule};
use crate::rng::trial_seed;
use rayon::prelude::*;

/// Configuration for a batch of independent trials.
#[derive(Clone, Copy, Debug)]
pub struct TrialConfig {
    /// Number of independent runs.
    pub trials: usize,
    /// Base seed; trial `t` derives its own seed from it.
    pub base_seed: u64,
    /// Per-trial round budget.
    pub max_rounds: u64,
}

/// Runs `cfg.trials` independent trials of `rule` on clones of `g0`,
/// spread across the rayon pool (each engine itself runs sequentially).
///
/// `make_check` builds a fresh convergence check per trial (checks may hold
/// state). Results are returned in trial order regardless of scheduling.
pub fn run_trials<G, R, C>(
    g0: &G,
    rule: R,
    make_check: impl Fn(&G) -> C + Sync,
    cfg: &TrialConfig,
) -> Vec<RunOutcome>
where
    G: GossipGraph,
    R: ProposalRule<G> + Clone,
    C: ConvergenceCheck<G>,
{
    let run_one = |t: usize| -> RunOutcome {
        let seed = trial_seed(cfg.base_seed, t);
        let mut check = make_check(g0);
        let mut engine = EngineBuilder::new(g0.clone(), rule.clone(), seed)
            .parallelism(Parallelism::Sequential)
            .build();
        engine.run_until(&mut check, cfg.max_rounds)
    };
    (0..cfg.trials).into_par_iter().map(run_one).collect()
}

/// Runs trials **one at a time**, streaming each [`RunOutcome`] to
/// `consume` as it completes instead of batching engines across workers.
///
/// This is the memory-bound entry point for giant-`n` configurations
/// (`gossip-bench`'s `run_all --only E15` sweeps to `n = 2^20`): at any instant
/// exactly one engine — one graph clone plus its proposal buffers — is
/// alive, so peak memory is `O(edges)`, not `O(workers · edges)` like the
/// parallel batch path, and nothing accumulates with the trial count.
/// Within the trial the engine still honors `parallelism` for its propose
/// phase, so single-trial throughput is unchanged. Outcomes arrive in
/// trial order and are bit-identical to [`run_trials`] on the same config
/// (both derive trial `t`'s seed the same way).
pub fn stream_trials<G, R, C>(
    g0: &G,
    rule: R,
    make_check: impl Fn(&G) -> C,
    cfg: &TrialConfig,
    parallelism: Parallelism,
    mut consume: impl FnMut(usize, RunOutcome),
) where
    G: GossipGraph,
    R: ProposalRule<G> + Clone,
    C: ConvergenceCheck<G>,
{
    for t in 0..cfg.trials {
        let seed = trial_seed(cfg.base_seed, t);
        let mut check = make_check(g0);
        let mut engine = EngineBuilder::new(g0.clone(), rule.clone(), seed)
            .parallelism(parallelism)
            .build();
        let outcome = engine.run_until(&mut check, cfg.max_rounds);
        consume(t, outcome);
    }
}

/// Convergence rounds of each trial; panics if any trial failed to converge
/// (use [`run_trials`] directly to handle censored runs).
pub fn convergence_rounds<G, R, C>(
    g0: &G,
    rule: R,
    make_check: impl Fn(&G) -> C + Sync,
    cfg: &TrialConfig,
) -> Vec<u64>
where
    G: GossipGraph,
    R: ProposalRule<G> + Clone,
    C: ConvergenceCheck<G>,
{
    run_trials(g0, rule, make_check, cfg)
        .into_iter()
        .enumerate()
        .map(|(t, o)| {
            assert!(
                o.converged,
                "trial {t} did not converge within {} rounds (final edges {})",
                cfg.max_rounds, o.final_edges
            );
            o.rounds
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::ComponentwiseComplete;
    use crate::rules::{Pull, Push};
    use gossip_graph::generators;

    #[test]
    fn trials_are_deterministic_in_base_seed() {
        let g = generators::star(12);
        let cfg = TrialConfig {
            trials: 8,
            base_seed: 77,
            max_rounds: 1_000_000,
        };
        let a = convergence_rounds(&g, Push, ComponentwiseComplete::for_graph, &cfg);
        let b = convergence_rounds(&g, Push, ComponentwiseComplete::for_graph, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_and_sequential_batches_agree() {
        let g = generators::cycle(10);
        let cfg = TrialConfig {
            trials: 6,
            base_seed: 5,
            max_rounds: 1_000_000,
        };
        let mut seq = Vec::new();
        stream_trials(
            &g,
            Pull,
            ComponentwiseComplete::for_graph,
            &cfg,
            Parallelism::Sequential,
            |_, o| seq.push(o.rounds),
        );
        let par = convergence_rounds(&g, Pull, ComponentwiseComplete::for_graph, &cfg);
        assert_eq!(seq, par);
    }

    #[test]
    fn trials_vary_across_index() {
        let g = generators::star(16);
        let cfg = TrialConfig {
            trials: 10,
            base_seed: 1,
            max_rounds: 1_000_000,
        };
        let rounds = convergence_rounds(&g, Push, ComponentwiseComplete::for_graph, &cfg);
        // Convergence time is random: 10 trials on a 16-star should not all
        // coincide.
        assert!(rounds.iter().any(|&r| r != rounds[0]), "{rounds:?}");
    }

    #[test]
    fn censored_runs_reported_not_panicking() {
        let g = generators::path(40);
        let cfg = TrialConfig {
            trials: 3,
            base_seed: 2,
            max_rounds: 1, // way too small
        };
        let out = run_trials(&g, Push, ComponentwiseComplete::for_graph, &cfg);
        assert!(out.iter().all(|o| !o.converged));
        assert!(out.iter().all(|o| o.rounds == 1));
    }
}
