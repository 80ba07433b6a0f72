//! The protocol kernel: every discovery protocol as an explicit per-node
//! state machine.
//!
//! Before this module, the repository had **three unrelated protocol
//! seams**: [`crate::process::ProposalRule`] for the batch engines,
//! `gossip-baselines`' `DiscoveryAlgorithm` for the message-accounting
//! baselines, and `gossip-net`'s `Protocol` for the lossy message
//! simulator. The same paper protocol (push, say) was implemented three
//! times, and no correctness property could be stated once and checked
//! everywhere.
//!
//! [`ProtocolKernel`] is the one definition. A kernel is a **pure
//! transition function** over a per-node view of the world:
//!
//! ```text
//! on_round(state, view, chooser) -> effects
//! ```
//!
//! * No hidden RNG: every random decision is an index drawn through the
//!   [`Chooser`] seam (`choose(n)` = uniform in `0..n`). The production
//!   [`RngChooser`] maps this to exactly one `random_range(0..n)` call on
//!   the engine's counter-based per-`(seed, round, node)` stream, so
//!   kernelized protocols replay the **bit-identical** draw sequence of
//!   the legacy implementations. The model checker (`gossip-model`)
//!   substitutes an enumerating chooser and traverses every choice.
//! * No hidden graph access: the kernel sees the world only through
//!   [`NodeView`] — its own contact row, and (in worlds that have it) a
//!   peer's contact row for two-hop walks.
//! * No hidden mutation: the kernel writes its decisions into
//!   [`Effects`] — edges to propose and payload descriptors to send —
//!   and the surrounding runtime (batch engine, baseline runner, network
//!   simulator) interprets them.
//!
//! # Worlds
//!
//! Each runtime is one interpreter of [`Effects`] over one kind of world:
//!
//! * **graph world** — [`kernel_propose`] runs a kernel through
//!   [`GraphView`] and hands its `connects` to the batch engines;
//!   `rules.rs` builds every [`crate::process::ProposalRule`] from it.
//! * **knowledge world** — `gossip-baselines`' `KernelBaseline<K>` runs a
//!   kernel through [`LocalView`] over a directed `Knowledge` state and
//!   gives each [`Share`] its delivery and bit cost; Name Dropper, pointer
//!   jumping, the throttled variant and flooding are that one runner with
//!   four kernels.
//! * **message world** — `gossip-net`'s `PushProtocol` and
//!   `NameDropperProtocol` drive `on_round` only: each runs its kernel
//!   through [`LocalView`] and [`RngChooser`] and puts the decisions on
//!   its outbox — a connect as a pair of introductions, a
//!   [`Share::KnownList`] as one full-list message; learning what arrives
//!   is the protocol's own message handler.
//! * **model checker** — `gossip-model` swaps the chooser for an
//!   enumerating one and applies every outcome of a graph- or
//!   knowledge-world kernel to a packed joint state, at `n ≤ 5`.
//!
//! Trajectories are pinned bit-identical by the determinism suite and the
//! adapter-equivalence proptests in `crates/core/tests/`.

use crate::process::ProposalSet;
use gossip_graph::{NodeId, UniformNeighbors};
use rand::rngs::SmallRng;
use rand::Rng;

/// Source of a kernel's random decisions: a uniform index in `0..n`.
///
/// `n` must be nonzero — kernels guard empty domains *before* drawing,
/// which is what keeps the draw count (and therefore the RNG stream
/// position) identical to the pre-kernel implementations.
pub trait Chooser {
    /// A uniform choice in `0..n`.
    fn choose(&mut self, n: usize) -> usize;
}

/// The production chooser: one [`Rng::random_range`] call per choice on
/// the engine's per-`(seed, round, node)` stream.
pub struct RngChooser<'a>(pub &'a mut SmallRng);

impl Chooser for RngChooser<'_> {
    #[inline]
    fn choose(&mut self, n: usize) -> usize {
        self.0.random_range(0..n)
    }
}

/// What a node can see when it acts: itself, its own contact row, and —
/// in worlds with remote visibility — a peer's contact row.
pub trait NodeView {
    /// The acting node.
    fn me(&self) -> NodeId;

    /// The node's own contact list, in the backend's sampling order.
    fn contacts(&self) -> &[NodeId];

    /// Contact list of peer `v` — the remote probe the pull-style two-hop
    /// walks use.
    ///
    /// # Panics
    /// Panics in worlds without remote visibility (the message-passing
    /// simulator's per-node view); only the walk kernels call it, and
    /// those are driven by engines whose views have it.
    fn peer_contacts(&self, v: NodeId) -> &[NodeId];
}

/// [`NodeView`] over any [`UniformNeighbors`] graph backend — the batch
/// engines' world, where a node's contacts are its graph neighbors and
/// two-hop probes read the neighbor's row directly.
pub struct GraphView<'a, G: ?Sized> {
    /// The shared round-start graph.
    pub graph: &'a G,
    /// The acting node.
    pub me: NodeId,
}

impl<G: UniformNeighbors + ?Sized> NodeView for GraphView<'_, G> {
    #[inline]
    fn me(&self) -> NodeId {
        self.me
    }
    #[inline]
    fn contacts(&self) -> &[NodeId] {
        self.graph.neighbor_row(self.me)
    }
    #[inline]
    fn peer_contacts(&self, v: NodeId) -> &[NodeId] {
        self.graph.neighbor_row(v)
    }
}

/// [`NodeView`] over a bare contact slice — the message-passing worlds
/// (`gossip-net` node contexts, the baselines' `Knowledge` rows), where a
/// node sees only its own state and remote probes are impossible.
pub struct LocalView<'a> {
    /// The acting node.
    pub me: NodeId,
    /// Its contact row (arrival order for `Knowledge`, ascending id order
    /// for `gossip-net` peers).
    pub contacts: &'a [NodeId],
}

impl NodeView for LocalView<'_> {
    #[inline]
    fn me(&self) -> NodeId {
        self.me
    }
    #[inline]
    fn contacts(&self) -> &[NodeId] {
        self.contacts
    }
    #[expect(
        clippy::panic,
        reason = "`NodeView::peer_contacts` documents the panic for views without remote visibility"
    )]
    fn peer_contacts(&self, v: NodeId) -> &[NodeId] {
        panic!("LocalView has no remote visibility (asked for contacts of {v:?})")
    }
}

/// Payload descriptor for a gossip message: *what* a node sends, without
/// materializing the bytes. The runtime interprets the descriptor against
/// its own storage (round-start snapshots, arrival-order rows), which
/// keeps the baselines' two-phase synchronous semantics and bit accounting
/// exactly where they were.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Share {
    /// The sender's entire known contact list (Name Dropper, flooding).
    KnownList,
    /// A request that the *target* reply with its entire list; the sender
    /// absorbs the reply (pointer jumping).
    PullRequest,
    /// A window of the sender's arrival-ordered contact list — the
    /// throttled Name Dropper's per-destination cursor chunk.
    Slice {
        /// First index of the window.
        start: u32,
        /// Window length (may be zero: the message is still sent).
        len: u32,
    },
}

/// Everything a kernel step decided, for the runtime to interpret.
#[derive(Clone, Debug, Default)]
pub struct Effects {
    /// Edges to propose: "introduce `a` and `b` to each other". In the
    /// batch engines this is the round's [`ProposalSet`]; in `gossip-net`
    /// each connect becomes a pair of introduction messages.
    pub connects: ProposalSet,
    /// Messages to send: `(destination, payload descriptor)`.
    pub shares: Vec<(NodeId, Share)>,
}

impl Effects {
    /// Clears all effects, retaining buffers.
    #[inline]
    pub fn clear(&mut self) {
        self.connects = ProposalSet::empty();
        self.shares.clear();
    }

    /// Records an edge proposal.
    #[inline]
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        self.connects.push((a, b));
    }

    /// Records an outgoing message.
    #[inline]
    pub fn share(&mut self, to: NodeId, what: Share) {
        self.shares.push((to, what));
    }
}

/// Per-node protocol state. The paper's protocols are memoryless; only
/// the throttled Name Dropper carries state (per-destination cursors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeState {
    /// No per-node memory.
    Stateless,
    /// Per-destination send cursors into the node's own arrival-ordered
    /// contact list (throttled Name Dropper).
    Cursors(Vec<u32>),
}

impl NodeState {
    /// The cursor vector.
    ///
    /// # Panics
    /// Panics if the state is [`NodeState::Stateless`]: only a kernel whose
    /// `initial_state` gives cursors may ask for them.
    #[inline]
    #[expect(clippy::panic, reason = "the documented contract of a cursor kernel")]
    pub fn cursors_mut(&mut self) -> &mut Vec<u32> {
        match self {
            NodeState::Cursors(c) => c,
            NodeState::Stateless => panic!("kernel expected cursor state"),
        }
    }
}

/// A discovery protocol as a pure per-node state machine.
///
/// Methods are generic (not object-safe) on purpose: the batch engines'
/// hot path monomorphizes the kernel + view + chooser into the same code
/// the hand-written rules compiled to, at the same ns/node/round. Each
/// runtime names its kernel type statically; the protocol *name* registry
/// is [`crate::registry::RuleId`].
pub trait ProtocolKernel {
    /// The protocol's registry name.
    fn name(&self) -> &'static str;

    /// One synchronous round step for the node behind `view`: read the
    /// round-start world, draw every decision through `choose`, write the
    /// outcome into `out`. Must not observe anything outside `view`.
    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        state: &mut NodeState,
        view: &V,
        choose: &mut C,
        out: &mut Effects,
    );

    /// Declared per-message payload budget: the maximum number of node
    /// ids one message may carry, or `None` if unbounded (Name Dropper's
    /// whole-list sends). With ids of `id_bits(n) = O(log n)` bits, a
    /// `Some(k)` bound certifies the paper's `O(log n)`-bits-per-message
    /// claim; the model checker enforces it on every enumerated message.
    fn max_message_ids(&self) -> Option<u64> {
        Some(1)
    }

    /// The per-node state a fresh node starts with in an `n`-node world —
    /// also the state a re-joining node is reset to under churn. The
    /// default is [`NodeState::Stateless`] (the paper's protocols are
    /// memoryless); stateful kernels override it, and the model checker
    /// uses it to decide whether per-node state must be encoded into the
    /// joint state space.
    fn initial_state(&self, n: usize) -> NodeState {
        let _ = n;
        NodeState::Stateless
    }
}

/// **Push (triangulation)** — Section 3: draw `v, w` i.i.d. from the own
/// contact row (with replacement) and introduce them to each other.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushKernel;

impl ProtocolKernel for PushKernel {
    fn name(&self) -> &'static str {
        "push"
    }

    #[inline]
    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        _state: &mut NodeState,
        view: &V,
        choose: &mut C,
        out: &mut Effects,
    ) {
        let row = view.contacts();
        if row.is_empty() {
            return;
        }
        let v = row[choose.choose(row.len())];
        let w = row[choose.choose(row.len())];
        if v != w {
            out.connect(v, w);
        }
    }
}

/// **Pull (two-hop walk)** — Section 4: step to a uniform contact `v`,
/// then to a uniform contact `w` of `v`, and connect to `w`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PullKernel;

impl ProtocolKernel for PullKernel {
    fn name(&self) -> &'static str {
        "pull"
    }

    #[inline]
    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        _state: &mut NodeState,
        view: &V,
        choose: &mut C,
        out: &mut Effects,
    ) {
        let row = view.contacts();
        if row.is_empty() {
            return;
        }
        let v = row[choose.choose(row.len())];
        let peer_row = view.peer_contacts(v);
        if peer_row.is_empty() {
            return;
        }
        let w = peer_row[choose.choose(peer_row.len())];
        if w != view.me() {
            out.connect(view.me(), w);
        }
    }
}

/// **Hybrid push + pull**: both a triangulation step and a two-hop-walk
/// step each round, in that draw order.
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridKernel;

impl ProtocolKernel for HybridKernel {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    #[inline]
    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        _state: &mut NodeState,
        view: &V,
        choose: &mut C,
        out: &mut Effects,
    ) {
        let row = view.contacts();
        if row.is_empty() {
            return;
        }
        let v = row[choose.choose(row.len())];
        let w = row[choose.choose(row.len())];
        if v != w {
            out.connect(v, w);
        }
        let v2 = row[choose.choose(row.len())];
        let peer_row = view.peer_contacts(v2);
        if !peer_row.is_empty() {
            let w2 = peer_row[choose.choose(peer_row.len())];
            if w2 != view.me() {
                out.connect(view.me(), w2);
            }
        }
    }
}

/// **Name Dropper** (Harchol-Balter–Leighton–Lewin): pick one uniform
/// contact and send it the entire known list. Whole-list payloads, so the
/// per-message id budget is unbounded.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameDropperKernel;

impl ProtocolKernel for NameDropperKernel {
    fn name(&self) -> &'static str {
        "name-dropper"
    }

    #[inline]
    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        _state: &mut NodeState,
        view: &V,
        choose: &mut C,
        out: &mut Effects,
    ) {
        let row = view.contacts();
        if row.is_empty() {
            return;
        }
        let v = row[choose.choose(row.len())];
        out.share(v, Share::KnownList);
    }

    fn max_message_ids(&self) -> Option<u64> {
        None
    }
}

/// **Pointer jumping**: pick one uniform contact and pull its entire
/// list (request + whole-list reply — the reply is unbounded).
#[derive(Clone, Copy, Debug, Default)]
pub struct PointerJumpKernel;

impl ProtocolKernel for PointerJumpKernel {
    fn name(&self) -> &'static str {
        "pointer-jump"
    }

    #[inline]
    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        _state: &mut NodeState,
        view: &V,
        choose: &mut C,
        out: &mut Effects,
    ) {
        let row = view.contacts();
        if row.is_empty() {
            return;
        }
        let v = row[choose.choose(row.len())];
        out.share(v, Share::PullRequest);
    }

    fn max_message_ids(&self) -> Option<u64> {
        None
    }
}

/// **Flooding**: deterministically send the entire known list to every
/// contact in the view — the baselines drive it with the *fixed initial
/// topology* as the view, per the classical broadcast model.
#[derive(Clone, Copy, Debug, Default)]
pub struct FloodingKernel;

impl ProtocolKernel for FloodingKernel {
    fn name(&self) -> &'static str {
        "flooding"
    }

    #[inline]
    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        _state: &mut NodeState,
        view: &V,
        _choose: &mut C,
        out: &mut Effects,
    ) {
        for &c in view.contacts() {
            out.share(c, Share::KnownList);
        }
    }

    fn max_message_ids(&self) -> Option<u64> {
        None
    }
}

/// **Throttled Name Dropper**: pick one uniform contact, send it the next
/// `budget`-sized window of the own arrival-ordered list, and advance the
/// per-destination cursor. Per-message payload is at most `budget` ids —
/// the bandwidth-bounded variant.
#[derive(Clone, Copy, Debug)]
pub struct ThrottledKernel {
    /// Maximum ids per message.
    pub budget: usize,
}

impl ProtocolKernel for ThrottledKernel {
    fn name(&self) -> &'static str {
        "throttled-nd"
    }

    #[inline]
    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        state: &mut NodeState,
        view: &V,
        choose: &mut C,
        out: &mut Effects,
    ) {
        let row = view.contacts();
        if row.is_empty() {
            return;
        }
        let v = row[choose.choose(row.len())];
        let cursors = state.cursors_mut();
        // Clamp at read: under churn the contact list can *shrink* below a
        // previously advanced cursor (membership removal keeps the list
        // order-preserving, so the boundary is still valid — but it may
        // now lie past the end). Without the clamp `end - cur` underflows.
        let cur = (cursors[v.index()] as usize).min(row.len());
        let end = (cur + self.budget).min(row.len());
        cursors[v.index()] = end as u32;
        out.share(
            v,
            Share::Slice {
                start: cur as u32,
                len: (end - cur) as u32,
            },
        );
    }

    fn max_message_ids(&self) -> Option<u64> {
        Some(self.budget as u64)
    }

    fn initial_state(&self, n: usize) -> NodeState {
        NodeState::Cursors(vec![0; n])
    }
}

/// Runs a graph-world kernel for one node and returns its proposals —
/// the adapter `rules.rs` builds [`crate::process::ProposalRule`]s from.
#[inline]
pub fn kernel_propose<G, K>(kernel: &K, g: &G, u: NodeId, rng: &mut SmallRng) -> ProposalSet
where
    G: UniformNeighbors + ?Sized,
    K: ProtocolKernel + ?Sized,
{
    let mut out = Effects::default();
    kernel.on_round(
        &mut NodeState::Stateless,
        &GraphView { graph: g, me: u },
        &mut RngChooser(rng),
        &mut out,
    );
    out.connects
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chooser that replays a scripted sequence of indices.
    struct Scripted(Vec<usize>, usize);
    impl Chooser for Scripted {
        fn choose(&mut self, n: usize) -> usize {
            let i = self.0[self.1];
            self.1 += 1;
            assert!(i < n, "scripted choice {i} out of domain {n}");
            i
        }
    }

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn push_kernel_connects_distinct_picks_only() {
        let contacts = ids(&[3, 5, 9]);
        let view = LocalView {
            me: NodeId(0),
            contacts: &contacts,
        };
        let mut out = Effects::default();
        PushKernel.on_round(
            &mut NodeState::Stateless,
            &view,
            &mut Scripted(vec![0, 2], 0),
            &mut out,
        );
        assert_eq!(out.connects.as_slice(), &[(NodeId(3), NodeId(9))]);

        out.clear();
        PushKernel.on_round(
            &mut NodeState::Stateless,
            &view,
            &mut Scripted(vec![1, 1], 0),
            &mut out,
        );
        assert!(out.connects.is_empty());
    }

    #[test]
    fn push_kernel_empty_row_draws_nothing() {
        let view = LocalView {
            me: NodeId(0),
            contacts: &[],
        };
        let mut out = Effects::default();
        // A chooser with an empty script: any draw would panic.
        PushKernel.on_round(
            &mut NodeState::Stateless,
            &view,
            &mut Scripted(vec![], 0),
            &mut out,
        );
        assert!(out.connects.is_empty());
    }

    #[test]
    fn throttled_kernel_windows_and_advances_cursor() {
        let contacts = ids(&[1, 2, 3, 4, 5]);
        let view = LocalView {
            me: NodeId(0),
            contacts: &contacts,
        };
        let k = ThrottledKernel { budget: 2 };
        let mut state = NodeState::Cursors(vec![0; 6]);
        let mut out = Effects::default();
        k.on_round(&mut state, &view, &mut Scripted(vec![1], 0), &mut out);
        assert_eq!(
            out.shares,
            vec![(NodeId(2), Share::Slice { start: 0, len: 2 })]
        );
        out.clear();
        k.on_round(&mut state, &view, &mut Scripted(vec![1], 0), &mut out);
        assert_eq!(
            out.shares,
            vec![(NodeId(2), Share::Slice { start: 2, len: 2 })]
        );
        // Cursor for a different destination is independent.
        out.clear();
        k.on_round(&mut state, &view, &mut Scripted(vec![0], 0), &mut out);
        assert_eq!(
            out.shares,
            vec![(NodeId(1), Share::Slice { start: 0, len: 2 })]
        );
    }

    #[test]
    fn flooding_kernel_shares_with_every_contact_in_order() {
        let contacts = ids(&[4, 2, 7]);
        let view = LocalView {
            me: NodeId(1),
            contacts: &contacts,
        };
        let mut out = Effects::default();
        FloodingKernel.on_round(
            &mut NodeState::Stateless,
            &view,
            &mut Scripted(vec![], 0),
            &mut out,
        );
        let dests: Vec<NodeId> = out.shares.iter().map(|&(d, _)| d).collect();
        assert_eq!(dests, ids(&[4, 2, 7]));
        assert!(out.shares.iter().all(|&(_, s)| s == Share::KnownList));
    }

    #[test]
    fn declared_budgets() {
        assert_eq!(PushKernel.max_message_ids(), Some(1));
        assert_eq!(PullKernel.max_message_ids(), Some(1));
        assert_eq!(HybridKernel.max_message_ids(), Some(1));
        assert_eq!(NameDropperKernel.max_message_ids(), None);
        assert_eq!(PointerJumpKernel.max_message_ids(), None);
        assert_eq!(ThrottledKernel { budget: 4 }.max_message_ids(), Some(4));
        assert_eq!(FloodingKernel.max_message_ids(), None);
    }
}
