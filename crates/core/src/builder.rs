//! One construction path for every engine variant.
//!
//! Before this module, every call site that wanted an engine hand-assembled
//! it: `Engine::new(graph, rule, seed).with_parallelism(..)` here, an
//! `AsyncEngine::new` there, a `ShardedEngine` with a shard plan somewhere
//! else — and anything generic over "an engine" (the serve loop, the trial
//! runners, the experiment battery) had to duplicate that choice.
//! [`EngineBuilder`] centralizes it: collect the ingredients (graph, rule, seed, parallelism
//! policy), then pick the execution variant at the end
//! ([`EngineBuilder::build`], [`EngineBuilder::build_async`]). Every
//! variant is a [`RoundEngine`](crate::seam::RoundEngine), so callers
//! generic over the seam take whichever was built.
//!
//! The sharded variant lives downstream (crate `gossip-shard`, which this
//! crate cannot depend on); it plugs in through the same builder via an
//! extension trait (`gossip_shard::BuildSharded`), using
//! [`EngineBuilder::into_parts`] to take the ingredients.

use crate::async_engine::AsyncEngine;
use crate::engine::{Engine, Parallelism};
use crate::membership::MembershipPlan;
use crate::process::{GossipGraph, ProposalRule};

/// Collects the ingredients of a run — initial graph, proposal rule,
/// experiment seed, parallelism policy — and builds whichever engine
/// variant the caller selects last.
///
/// ```
/// use gossip_core::{ComponentwiseComplete, EngineBuilder, Push};
/// use gossip_graph::generators;
///
/// let g0 = generators::star(32);
/// let mut check = ComponentwiseComplete::for_graph(&g0);
/// let mut engine = EngineBuilder::new(g0, Push, 7).build();
/// assert!(engine.run_until(&mut check, 1_000_000).converged);
/// ```
#[derive(Clone, Debug)]
pub struct EngineBuilder<G, R> {
    graph: G,
    rule: R,
    seed: u64,
    parallelism: Parallelism,
    membership: Option<MembershipPlan>,
}

impl<G: GossipGraph, R: ProposalRule<G>> EngineBuilder<G, R> {
    /// Starts a builder from the three mandatory ingredients.
    pub fn new(graph: G, rule: R, seed: u64) -> Self {
        EngineBuilder {
            graph,
            rule,
            seed,
            parallelism: Parallelism::default(),
            membership: None,
        }
    }

    /// Sets the parallelism policy (defaults to [`Parallelism::default`];
    /// applies to the engines that have a parallel phase — the synchronous
    /// and sharded variants).
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Installs a join/leave schedule (the [`crate::membership`] lifecycle
    /// seam). Every synchronous engine variant built from this builder —
    /// batch or sharded, served or not — applies the identical event
    /// stream at the identical round boundaries.
    pub fn membership(mut self, plan: MembershipPlan) -> Self {
        self.membership = Some(plan);
        self
    }

    /// Decomposes the builder into
    /// `(graph, rule, seed, parallelism, membership)` — the hook
    /// downstream crates use to add variants (the sharded engine's
    /// `BuildSharded` extension).
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (G, R, u64, Parallelism, Option<MembershipPlan>) {
        (
            self.graph,
            self.rule,
            self.seed,
            self.parallelism,
            self.membership,
        )
    }

    /// Builds the synchronous round engine.
    pub fn build(self) -> Engine<G, R> {
        let mut engine =
            Engine::new(self.graph, self.rule, self.seed).with_parallelism(self.parallelism);
        if let Some(plan) = self.membership {
            engine = engine.with_membership(plan);
        }
        engine
    }

    /// Builds the Poisson-clock asynchronous engine (parallelism does not
    /// apply: activations are inherently one node at a time).
    ///
    /// # Panics
    /// Panics if a membership plan is installed: the asynchronous engine
    /// has no synchronous round boundary to key the event schedule on.
    pub fn build_async(self) -> AsyncEngine<G, R> {
        assert!(
            self.membership.is_none(),
            "membership plans require a synchronous engine (round-keyed events)"
        );
        AsyncEngine::new(self.graph, self.rule, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Push;
    use gossip_graph::generators;

    #[test]
    fn built_engine_matches_hand_assembly() {
        let g = generators::tree_plus_random_edges(300, 600, &mut crate::rng::stream_rng(3, 0, 0));
        let mut hand = Engine::new(g.clone(), Push, 11).with_parallelism(Parallelism::Sequential);
        let mut built = EngineBuilder::new(g, Push, 11)
            .parallelism(Parallelism::Sequential)
            .build();
        for round in 0..20 {
            assert_eq!(hand.step(), built.step(), "round {round}");
        }
    }
}
