//! Core abstractions: what a gossip round *is*.
//!
//! The paper's processes share one synchronous-round skeleton: every node
//! inspects the round-start graph `G_t`, proposes edges from local random
//! choices, and all proposals are applied together to form `G_{t+1}`. A
//! [`ProposalRule`] captures the per-node choice; [`GossipGraph`] abstracts
//! the two graph types so one engine serves the undirected and directed
//! processes.

use crate::rng::stream_rng;
use gossip_graph::{ArenaGraph, DirectedGraph, NodeId, ShardedArenaGraph};
use rand::rngs::SmallRng;
use std::ops::Range;

/// One proposal flowing through the engine's flat pipeline:
/// `(proposer, a, b)` — node `proposer` wants edge `(a, b)` to exist.
pub type TaggedProposal = (NodeId, NodeId, NodeId);

/// Up to two proposed edges, inline (no allocation on the per-node hot path).
///
/// One slot suffices for push/pull; the hybrid variant proposes both a push
/// and a pull edge in the same round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProposalSet {
    edges: [(NodeId, NodeId); 2],
    len: u8,
}

impl ProposalSet {
    /// No proposal this round.
    #[inline]
    pub fn empty() -> Self {
        ProposalSet::default()
    }

    /// A single proposed edge.
    #[inline]
    pub fn one(a: NodeId, b: NodeId) -> Self {
        ProposalSet {
            edges: [(a, b), (NodeId(0), NodeId(0))],
            len: 1,
        }
    }

    /// Two proposed edges.
    #[inline]
    pub fn two(e1: (NodeId, NodeId), e2: (NodeId, NodeId)) -> Self {
        ProposalSet {
            edges: [e1, e2],
            len: 2,
        }
    }

    /// Appends an edge.
    ///
    /// # Panics
    /// Panics if already holding two edges.
    #[inline]
    pub fn push(&mut self, e: (NodeId, NodeId)) {
        assert!(self.len < 2, "ProposalSet overflow");
        self.edges[self.len as usize] = e;
        self.len += 1;
    }

    /// Number of proposed edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no edge is proposed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The proposed edges.
    #[inline]
    pub fn as_slice(&self) -> &[(NodeId, NodeId)] {
        &self.edges[..self.len as usize]
    }
}

/// A graph the engine can run on: node enumeration + edge application.
pub trait GossipGraph: Clone + Send + Sync {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Applies a proposed edge; returns `true` if the graph changed.
    /// Degenerate proposals (`a == b`) must be no-ops.
    fn apply_edge(&mut self, a: NodeId, b: NodeId) -> bool;
    /// Current edge/arc count.
    fn edge_count(&self) -> u64;

    /// Applies one whole round of proposals from the engine's flat
    /// pipeline: `bufs` are the per-chunk proposal buffers, concatenated
    /// in node order. `on_new(proposer, a, b)` fires once per edge that
    /// actually changed the graph, in proposal order.
    ///
    /// The default applies proposals one at a time in order — the classic
    /// apply loop, which [`DirectedGraph`] and (under the plain engine)
    /// [`ShardedArenaGraph`] run. [`ArenaGraph`] overrides it with a
    /// row-ordered batch merge; rows are canonical, so both give the same
    /// graph and the same `on_new` sequence.
    fn apply_proposals(
        &mut self,
        bufs: &[Vec<TaggedProposal>],
        on_new: &mut dyn FnMut(NodeId, NodeId, NodeId),
    ) -> RoundStats {
        let mut stats = RoundStats::default();
        for buf in bufs {
            for &(u, a, b) in buf {
                stats.proposed += 1;
                if self.apply_edge(a, b) {
                    stats.added += 1;
                    on_new(u, a, b);
                }
            }
        }
        stats
    }

    /// Removes member `u` for a [`MembershipPlan`](crate::MembershipPlan)
    /// leave event: every incident edge is deleted and `u`'s row retired,
    /// leaving the id addressable for a later
    /// [`GossipGraph::admit_member`]. Returns the number of edges removed.
    ///
    /// The default panics: dynamic membership is opt-in per backend (the
    /// arena-backed graphs, sharded or not, support it; the directed variant
    /// does not participate in churn workloads).
    fn remove_member(&mut self, u: NodeId) -> u64 {
        let _ = u;
        unimplemented!("this graph backend does not support dynamic membership (remove_member)")
    }

    /// (Re-)admits member `u` for a join event: bootstrap edges
    /// `(u, c)` are added for every `c` in `contacts`. Returns the number
    /// of edges actually new. The default applies them one at a time
    /// through [`GossipGraph::apply_edge`], which every backend supports.
    fn admit_member(&mut self, u: NodeId, contacts: &[NodeId]) -> u64 {
        contacts.iter().map(|&v| self.apply_edge(u, v) as u64).sum()
    }
}

impl GossipGraph for DirectedGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.n()
    }
    #[inline]
    fn apply_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        self.add_arc(a, b)
    }
    #[inline]
    fn edge_count(&self) -> u64 {
        self.arc_count()
    }
}

impl GossipGraph for ArenaGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.n()
    }
    #[inline]
    fn apply_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        self.add_edge(a, b)
    }
    #[inline]
    fn edge_count(&self) -> u64 {
        self.m()
    }

    /// Whole-round batch apply: the chunk buffers, read in place, go
    /// through one row-ordered merge ([`ArenaGraph::apply_batch`]) instead
    /// of `O(n)` individual binary-search inserts that land on random
    /// rows. Attribution (first proposer in node order wins) matches the
    /// default path exactly.
    fn apply_proposals(
        &mut self,
        bufs: &[Vec<TaggedProposal>],
        on_new: &mut dyn FnMut(NodeId, NodeId, NodeId),
    ) -> RoundStats {
        let (proposed, added) = self.apply_batch(bufs.iter().flatten().copied(), on_new);
        RoundStats { proposed, added }
    }

    fn remove_member(&mut self, u: NodeId) -> u64 {
        self.remove_member(u)
    }
    fn admit_member(&mut self, u: NodeId, contacts: &[NodeId]) -> u64 {
        self.admit_member(u, contacts)
    }
}

/// The plain [`Engine`](crate::engine::Engine) can also drive the sharded
/// backend through the default one-at-a-time apply path — rows are sorted
/// and canonical, so the result is bit-identical to `ArenaGraph` and to the
/// mailbox-routed apply in `gossip-shard` (which is the point: the
/// sequential run is the oracle the sharded engine is pinned against).
impl GossipGraph for ShardedArenaGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.n()
    }
    #[inline]
    fn apply_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        self.add_edge(a, b)
    }
    #[inline]
    fn edge_count(&self) -> u64 {
        self.m()
    }
    fn remove_member(&mut self, u: NodeId) -> u64 {
        self.remove_member(u)
    }
    fn admit_member(&mut self, u: NodeId, contacts: &[NodeId]) -> u64 {
        self.admit_member(u, contacts)
    }
}

/// The per-node random choice of a gossip process.
///
/// Implementations must be pure given `(g, u, rng)`: all engine guarantees
/// (determinism, seq/par equivalence) follow from that purity.
pub trait ProposalRule<G: GossipGraph>: Send + Sync {
    /// Edges node `u` proposes while observing the round-start graph `g`.
    fn propose(&self, g: &G, u: NodeId, rng: &mut SmallRng) -> ProposalSet;

    /// Appends to `buf`, in node order, what every node of `nodes` proposes
    /// in `round`, each drawing from its own `(seed, round, node)` stream.
    /// The default is that loop over [`ProposalRule::propose`]; a rule may
    /// override it to overlap the memory accesses of neighbouring nodes,
    /// never to change a draw — the buffer must come out identical.
    fn propose_range(
        &self,
        g: &G,
        seed: u64,
        round: u64,
        nodes: Range<usize>,
        buf: &mut Vec<TaggedProposal>,
    ) {
        for u in nodes {
            let node = NodeId::new(u);
            let mut rng = stream_rng(seed, round, u as u64);
            for &(a, b) in self.propose(g, node, &mut rng).as_slice() {
                buf.push((node, a, b));
            }
        }
    }

    /// Human-readable rule name for logs and result tables.
    fn name(&self) -> &'static str;
}

/// Statistics for one applied round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Number of edges proposed (including duplicates and no-ops).
    pub proposed: u64,
    /// Number of edges that were actually new.
    pub added: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposal_set_push_and_iter() {
        let mut p = ProposalSet::empty();
        assert!(p.is_empty());
        p.push((NodeId(1), NodeId(2)));
        p.push((NodeId(3), NodeId(4)));
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.as_slice(),
            &[(NodeId(1), NodeId(2)), (NodeId(3), NodeId(4))]
        );
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn proposal_set_overflow() {
        let mut p = ProposalSet::two((NodeId(0), NodeId(1)), (NodeId(1), NodeId(2)));
        p.push((NodeId(2), NodeId(3)));
    }

    #[test]
    fn gossip_graph_undirected_apply() {
        let mut g = ArenaGraph::new(3);
        assert!(g.apply_edge(NodeId(0), NodeId(1)));
        assert!(!g.apply_edge(NodeId(1), NodeId(0)));
        assert!(!g.apply_edge(NodeId(2), NodeId(2)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn gossip_graph_directed_apply() {
        let mut g = DirectedGraph::new(3);
        assert!(g.apply_edge(NodeId(0), NodeId(1)));
        assert!(g.apply_edge(NodeId(1), NodeId(0)));
        assert!(!g.apply_edge(NodeId(1), NodeId(1)));
        assert_eq!(g.edge_count(), 2);
    }
}
