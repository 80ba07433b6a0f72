//! The protocol registry: one name → rule mapping for every layer.
//!
//! Before this module, the `name → rule` match was copy-pasted across
//! `src/cli.rs` (four sites) and the `gossip-bench` experiment modules,
//! each with its own error message and its own chance to drift.
//! [`RuleId`] is the single definition: the engine-runnable undirected
//! rules by name. Parse a name with [`RuleId::parse`] (the error lists
//! every registered name), then run the id itself: it is a
//! [`ProposalRule`] that forwards each call to its concrete zero-sized
//! rule. A protocol whose runtime is fixed at compile time (the
//! baselines' kernels, the model checker's) names its kernel type
//! directly and needs no registry entry.

use crate::process::{GossipGraph, ProposalRule, ProposalSet, TaggedProposal};
use crate::rules::{HybridPushPull, Pull, Push};
use gossip_graph::NodeId;
use rand::rngs::SmallRng;
use std::ops::Range;

/// The engine-runnable undirected proposal rules, by registry name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// [`crate::rules::Push`] — triangulation.
    Push,
    /// [`crate::rules::Pull`] — two-hop walk.
    Pull,
    /// [`crate::rules::HybridPushPull`] — both per round.
    Hybrid,
}

impl RuleId {
    /// Every registered rule, in registry order.
    pub const ALL: [RuleId; 3] = [RuleId::Push, RuleId::Pull, RuleId::Hybrid];

    /// The registry name (what [`RuleId::parse`] accepts).
    pub fn name(&self) -> &'static str {
        match self {
            RuleId::Push => "push",
            RuleId::Pull => "pull",
            RuleId::Hybrid => "hybrid",
        }
    }

    /// Resolves a protocol name; the error lists every registered name.
    pub fn parse(s: &str) -> Result<RuleId, String> {
        Self::ALL
            .into_iter()
            .find(|id| id.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown protocol {s:?}; registered protocols: {}",
                    Self::names().join(", ")
                )
            })
    }

    /// All registered names, in registry order.
    pub fn names() -> Vec<&'static str> {
        Self::ALL.iter().map(|id| id.name()).collect()
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A [`RuleId`] proposes exactly what its concrete rule proposes, so an
/// engine can run a rule chosen at run time — or received over the wire.
/// Each call is one match: the engines call
/// [`ProposalRule::propose_range`] once per propose chunk, and the rule's
/// own per-node loop runs unchanged behind it.
impl<G: GossipGraph> ProposalRule<G> for RuleId {
    fn propose(&self, g: &G, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
        match self {
            RuleId::Push => Push.propose(g, u, rng),
            RuleId::Pull => Pull.propose(g, u, rng),
            RuleId::Hybrid => HybridPushPull.propose(g, u, rng),
        }
    }

    fn propose_range(
        &self,
        g: &G,
        seed: u64,
        round: u64,
        nodes: Range<usize>,
        buf: &mut Vec<TaggedProposal>,
    ) {
        match self {
            RuleId::Push => Push.propose_range(g, seed, round, nodes, buf),
            RuleId::Pull => Pull.propose_range(g, seed, round, nodes, buf),
            RuleId::Hybrid => HybridPushPull.propose_range(g, seed, round, nodes, buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;
    use gossip_graph::{generators, ShardedArenaGraph};

    #[test]
    fn parse_roundtrips_every_rule() {
        for id in RuleId::ALL {
            assert_eq!(RuleId::parse(id.name()), Ok(id));
        }
    }

    #[test]
    fn parse_error_lists_registered_names() {
        let err = RuleId::parse("gossipsub").unwrap_err();
        assert!(err.contains("gossipsub"), "{err}");
        for id in RuleId::ALL {
            assert!(err.contains(id.name()), "{err} missing {}", id.name());
        }
    }

    const SEED: u64 = 20260807;

    /// What `rule` proposes in round 3 over `g`: through `propose`, node
    /// by node, and through `propose_range` over every node.
    fn proposals<G, R>(rule: &R, g: &G) -> [Vec<TaggedProposal>; 2]
    where
        G: GossipGraph,
        R: ProposalRule<G>,
    {
        let n = g.node_count();
        let mut by_node = Vec::new();
        for u in (0..n).map(NodeId::new) {
            let mut rng = stream_rng(SEED, 3, u.index() as u64);
            let set = rule.propose(g, u, &mut rng);
            by_node.extend(set.as_slice().iter().map(|&(a, b)| (u, a, b)));
        }
        let mut by_range = Vec::new();
        rule.propose_range(g, SEED, 3, 0..n, &mut by_range);
        [by_node, by_range]
    }

    fn assert_id_is_its_rule<G: GossipGraph>(id: RuleId, g: &G, what: &str) {
        let oracle = match id {
            RuleId::Push => proposals(&Push, g),
            RuleId::Pull => proposals(&Pull, g),
            RuleId::Hybrid => proposals(&HybridPushPull, g),
        };
        assert!(!oracle[1].is_empty(), "{id} on {what}: nothing proposed");
        assert_eq!(proposals(&id, g), oracle, "{id} on {what}");
    }

    #[test]
    fn rule_id_proposes_what_its_concrete_rule_proposes() {
        let n = 1500;
        let mut arena =
            generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(5, 0, 0));
        // Tombstoned rows: empty, and unreachable by any walk.
        for u in (0..n).step_by(11) {
            arena.remove_member(NodeId::new(u));
        }
        let sharded = ShardedArenaGraph::from_arena(&arena, 3);
        for id in RuleId::ALL {
            assert_id_is_its_rule(id, &arena, "the arena");
            assert_id_is_its_rule(id, &sharded, "the sharded arena");
        }
    }
}
