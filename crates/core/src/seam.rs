//! The engine-selection seam: one driving loop for every engine.
//!
//! Every execution engine — the synchronous [`Engine`](crate::engine::Engine),
//! the Poisson-clock [`AsyncEngine`](crate::async_engine::AsyncEngine), the
//! in-process `ShardedEngine` and the cross-process `ShardRoundDriver`
//! (crate `gossip-shard`) — differs in *how a quantum of work is
//! scheduled*, not in what a run is: advance quanta, watch a
//! [`ConvergenceCheck`], stop at a budget. [`RoundEngine`] captures exactly
//! that seam, and [`run_engine_listened`] is the one shared implementation
//! of the run loop — experiments select an engine by constructing it, and
//! everything downstream (convergence, recorders, outcome reporting) is
//! engine-agnostic and rides the [`RoundListener`] seam.
//!
//! A quantum can fail: an engine whose round crosses a process boundary
//! reports a lost peer as its [`RoundEngine::Error`], and the loop hands
//! it to the caller. The in-process engines use
//! [`Infallible`](std::convert::Infallible), so their callers bind the
//! outcome with an irrefutable `let Ok(out) = …;`.
//!
//! A "quantum" is one synchronous round for the round-based engines and one
//! activation for the asynchronous engine (its natural scheduling unit);
//! `budget` counts quanta either way.

use crate::convergence::ConvergenceCheck;
use crate::engine::RunOutcome;
use crate::listener::{RoundControl, RoundEvent, RoundListener, StopWhen};
use crate::process::{GossipGraph, RoundStats};

/// An engine that advances a gossip process one scheduling quantum at a
/// time. See the [module docs](self) for what a quantum is per engine.
pub trait RoundEngine {
    /// The graph type the engine mutates.
    type Graph: GossipGraph;

    /// Why a quantum failed; `Infallible` for engines whose quanta cannot.
    type Error;

    /// The current graph `G_t`.
    fn graph(&self) -> &Self::Graph;

    /// Quanta executed so far.
    fn quanta(&self) -> u64;

    /// Executes one quantum, delivering any
    /// [`PhaseEvent`](crate::listener::PhaseEvent)s the engine's step
    /// decomposes into to `listener` (engines without a phase breakdown
    /// ignore it), and returns what happened.
    fn step_listened(
        &mut self,
        listener: &mut dyn RoundListener<Self::Graph>,
    ) -> Result<RoundStats, Self::Error>;
}

/// The one shared run loop: advances `engine` until `listener` votes
/// [`RoundControl::Stop`] or `budget` quanta have executed. `converged` in
/// the outcome means "a listener stopped the run". A failed quantum ends
/// the run with the engine's error.
///
/// Event order per quantum: the engine's phase events (from inside
/// `step_listened`), then one [`RoundEvent`] with the post-round graph.
pub fn run_engine_listened<E, L>(
    engine: &mut E,
    listener: &mut L,
    budget: u64,
) -> Result<RunOutcome, E::Error>
where
    E: RoundEngine + ?Sized,
    L: RoundListener<E::Graph> + ?Sized,
{
    let outcome = |engine: &E, converged: bool| RunOutcome {
        rounds: engine.quanta(),
        converged,
        final_edges: engine.graph().edge_count(),
    };
    // The start graph may already satisfy a listener's target.
    if listener.on_start(engine.graph()) == RoundControl::Stop {
        return Ok(outcome(engine, true));
    }
    let start = engine.quanta();
    while engine.quanta() - start < budget {
        let stats = {
            // Re-borrow as a Sized forwarder so the ?Sized listener can be
            // handed to the engine's dyn phase hook.
            let mut fwd: &mut L = &mut *listener;
            engine.step_listened(&mut fwd)?
        };
        let ev = RoundEvent {
            round: engine.quanta(),
            graph: engine.graph(),
            stats,
        };
        if listener.on_round(&ev) == RoundControl::Stop {
            return Ok(outcome(engine, true));
        }
    }
    Ok(outcome(engine, false))
}

/// Runs `engine` until `check` fires or `budget` quanta have executed —
/// [`run_engine_listened`] with the check riding as a [`StopWhen`]
/// listener.
pub fn run_engine_until<E, C>(
    engine: &mut E,
    check: &mut C,
    budget: u64,
) -> Result<RunOutcome, E::Error>
where
    E: RoundEngine,
    C: ConvergenceCheck<E::Graph>,
{
    run_engine_listened(engine, &mut StopWhen(check), budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::{ComponentwiseComplete, Never};
    use crate::engine::Engine;
    use crate::rules::Push;
    use gossip_graph::generators;

    #[test]
    fn seam_loop_matches_engine_run_until() {
        let g = generators::path(16);
        let mut a = Engine::new(g.clone(), Push, 9);
        let mut b = Engine::new(g, Push, 9);
        let mut ca = ComponentwiseComplete::for_graph(a.graph());
        let mut cb = ComponentwiseComplete::for_graph(b.graph());
        let oa = a.run_until(&mut ca, 1_000_000);
        let Ok(ob) = run_engine_until(&mut b, &mut cb, 1_000_000);
        assert_eq!(oa, ob);
    }

    #[test]
    fn async_engine_drives_through_the_seam() {
        use crate::async_engine::AsyncEngine;
        let g = generators::star(12);
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut e = AsyncEngine::new(g, Push, 3);
        // Budget counts activations for the async engine.
        let Ok(out) = run_engine_until(&mut e, &mut check, 1_000_000);
        assert!(out.converged);
        assert_eq!(out.rounds, e.activations());
        assert!(e.graph().is_complete());
    }

    #[test]
    fn budget_is_respected_across_engines() {
        let g = generators::cycle(24);
        let mut e = Engine::new(g, Push, 1);
        let Ok(out) = run_engine_until(&mut e, &mut Never, 7);
        assert!(!out.converged);
        assert_eq!(out.rounds, 7);
    }
}
