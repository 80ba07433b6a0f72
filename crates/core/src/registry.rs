//! The protocol registry: one name → protocol mapping for every layer.
//!
//! Before this module, the `name → rule` match was copy-pasted across
//! `src/cli.rs` (four sites) and the `gossip-bench` experiment modules,
//! each with its own error message and its own chance to drift. The
//! registry is the single definition:
//!
//! * [`RuleId`] — the engine-runnable undirected rules. Parse a name with
//!   [`RuleId::parse`] (the error lists every registered name), then run
//!   the id itself: it is a [`ProposalRule`] that forwards each call to
//!   its concrete zero-sized rule.
//! * [`AnyKernel`] — every protocol state machine behind one enum, for
//!   callers that need uniform runtime dispatch without `dyn` (the model
//!   checker, diagnostics). It implements [`ProtocolKernel`] by matching.

use crate::kernel::{
    Chooser, Effects, FloodingKernel, HybridKernel, KernelMsg, NameDropperKernel, NodeState,
    NodeView, PointerJumpKernel, ProtocolKernel, PullKernel, PushKernel, ThrottledKernel,
};
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

    /// The registry name (what [`RuleId::parse`] accepts and what the
    /// rule's `ProposalRule::name` reports).
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

    fn name(&self) -> &'static str {
        match self {
            RuleId::Push => ProposalRule::<G>::name(&Push),
            RuleId::Pull => ProposalRule::<G>::name(&Pull),
            RuleId::Hybrid => ProposalRule::<G>::name(&HybridPushPull),
        }
    }
}

/// Every protocol kernel behind one enum — uniform runtime dispatch
/// without trait objects (the kernel trait's generic methods are not
/// object-safe by design; the hot paths stay monomorphized).
#[derive(Clone, Copy, Debug)]
pub enum AnyKernel {
    /// Triangulation.
    Push(PushKernel),
    /// Two-hop walk.
    Pull(PullKernel),
    /// Push + pull per round.
    Hybrid(HybridKernel),
    /// Whole-list gossip to one random contact.
    NameDropper(NameDropperKernel),
    /// Whole-list pull from one random contact.
    PointerJump(PointerJumpKernel),
    /// Whole-list broadcast over the fixed initial topology.
    Flooding(FloodingKernel),
    /// Budgeted Name Dropper with per-destination cursors.
    Throttled(ThrottledKernel),
}

impl AnyKernel {
    /// Every kernel under its registry name (`throttled-nd` gets the
    /// default budget of 4 ids per message).
    pub fn all() -> Vec<AnyKernel> {
        vec![
            AnyKernel::Push(PushKernel),
            AnyKernel::Pull(PullKernel),
            AnyKernel::Hybrid(HybridKernel),
            AnyKernel::NameDropper(NameDropperKernel),
            AnyKernel::PointerJump(PointerJumpKernel),
            AnyKernel::Flooding(FloodingKernel),
            AnyKernel::Throttled(ThrottledKernel { budget: 4 }),
        ]
    }

    /// Resolves a kernel name; the error lists every registered name.
    pub fn parse(s: &str) -> Result<AnyKernel, String> {
        Self::all()
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::all().iter().map(|k| k.name()).collect();
                format!(
                    "unknown protocol kernel {s:?}; registered kernels: {}",
                    names.join(", ")
                )
            })
    }
}

macro_rules! any_kernel_delegate {
    ($self:ident, $k:ident, $call:expr) => {
        match $self {
            AnyKernel::Push($k) => $call,
            AnyKernel::Pull($k) => $call,
            AnyKernel::Hybrid($k) => $call,
            AnyKernel::NameDropper($k) => $call,
            AnyKernel::PointerJump($k) => $call,
            AnyKernel::Flooding($k) => $call,
            AnyKernel::Throttled($k) => $call,
        }
    };
}

impl ProtocolKernel for AnyKernel {
    fn name(&self) -> &'static str {
        any_kernel_delegate!(self, k, k.name())
    }

    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        state: &mut NodeState,
        view: &V,
        choose: &mut C,
        out: &mut Effects,
    ) {
        any_kernel_delegate!(self, k, k.on_round(state, view, choose, out))
    }

    fn on_message<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        state: &mut NodeState,
        view: &V,
        choose: &mut C,
        from: NodeId,
        msg: &KernelMsg,
        out: &mut Effects,
    ) {
        any_kernel_delegate!(self, k, k.on_message(state, view, choose, from, msg, out))
    }

    fn max_message_ids(&self) -> Option<u64> {
        any_kernel_delegate!(self, k, k.max_message_ids())
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
        assert_eq!(ProposalRule::<G>::name(&id), id.name());
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

    #[test]
    fn kernel_registry_parses_every_name() {
        for k in AnyKernel::all() {
            assert_eq!(AnyKernel::parse(k.name()).unwrap().name(), k.name());
        }
        let err = AnyKernel::parse("nope").unwrap_err();
        assert!(err.contains("name-dropper"), "{err}");
    }
}
