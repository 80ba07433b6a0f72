//! The protocol registry: one name → protocol mapping for every layer.
//!
//! Before this module, the `name → rule` match was copy-pasted across
//! `src/cli.rs` (four sites) and the `gossip-bench` experiment modules,
//! each with its own error message and its own chance to drift. The
//! registry is the single definition:
//!
//! * [`RuleId`] — the engine-runnable undirected rules. Parse a name with
//!   [`RuleId::parse`] (the error lists every registered name), then
//!   dispatch to a concrete zero-sized rule with [`crate::with_rule!`] —
//!   the macro form exists because each rule is a distinct type and the
//!   call sites are generic over `R: ProposalRule<G>`, which a closure
//!   cannot express.
//! * [`AnyKernel`] — every protocol state machine behind one enum, for
//!   callers that need uniform runtime dispatch without `dyn` (the model
//!   checker, diagnostics). It implements [`ProtocolKernel`] by matching.

use crate::kernel::{
    Chooser, Effects, FloodingKernel, HybridKernel, KernelMsg, NameDropperKernel, NodeState,
    NodeView, PointerJumpKernel, ProtocolKernel, PullKernel, PushKernel, ThrottledKernel,
};
use gossip_graph::NodeId;

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
    pub fn name(self) -> &'static str {
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

/// Dispatches a [`RuleId`](crate::RuleId) to its concrete zero-sized rule:
/// `with_rule!(id, |rule| expr)` runs `expr` with `rule` bound to
/// [`Push`](crate::Push), [`Pull`](crate::Pull), or
/// [`HybridPushPull`](crate::HybridPushPull). A macro rather than a
/// closure-taking function because `expr` is typically generic over
/// `R: ProposalRule<G>` — each arm monomorphizes separately.
#[macro_export]
macro_rules! with_rule {
    ($id:expr, |$rule:ident| $body:expr) => {
        match $id {
            $crate::RuleId::Push => {
                let $rule = $crate::Push;
                $body
            }
            $crate::RuleId::Pull => {
                let $rule = $crate::Pull;
                $body
            }
            $crate::RuleId::Hybrid => {
                let $rule = $crate::HybridPushPull;
                $body
            }
        }
    };
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
    use crate::process::ProposalRule;
    use gossip_graph::ArenaGraph;

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

    #[test]
    fn with_rule_binds_the_matching_rule() {
        for id in RuleId::ALL {
            let name = with_rule!(id, |rule| ProposalRule::<ArenaGraph>::name(&rule));
            assert_eq!(name, id.name());
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
