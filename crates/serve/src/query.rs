//! The read surface a snapshot serves.
//!
//! [`GossipGraph`] is the *engine-facing* contract — it only promises what
//! the round loop needs (counts plus proposal application). A service
//! answering "who does node `u` know?" needs adjacency reads, and every
//! backend in the repository already has them as inherent methods with
//! identical shapes. [`GraphQuery`] lifts that shared shape into a trait so
//! [`Snapshot`](crate::Snapshot) can expose one query API regardless of
//! which engine variant is running underneath.

use gossip_core::GossipGraph;
use gossip_graph::{ArenaGraph, NodeId, ShardedArenaGraph};

/// Read-only adjacency queries over a gossip graph — the per-node surface
/// a resident service answers from its snapshots.
pub trait GraphQuery: GossipGraph {
    /// Degree of `u`.
    fn degree(&self, u: NodeId) -> usize;

    /// Neighbors of `u`, in ascending id order.
    fn neighbors(&self, u: NodeId) -> &[NodeId];

    /// Whether the edge `{u, v}` is present.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// Edge count of the complete graph on this node set — the
    /// discovery-process convergence target `n(n-1)/2`.
    fn complete_edge_target(&self) -> u64;

    /// Whether discovery has converged (the graph is complete).
    fn is_complete(&self) -> bool {
        self.edge_count() >= self.complete_edge_target()
    }
}

impl GraphQuery for ArenaGraph {
    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        ArenaGraph::degree(self, u)
    }
    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        ArenaGraph::neighbors(self, u)
    }
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        ArenaGraph::has_edge(self, u, v)
    }
    #[inline]
    fn complete_edge_target(&self) -> u64 {
        self.complete_m()
    }
}

impl GraphQuery for ShardedArenaGraph {
    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        ShardedArenaGraph::degree(self, u)
    }
    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        ShardedArenaGraph::neighbors(self, u)
    }
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        ShardedArenaGraph::has_edge(self, u, v)
    }
    #[inline]
    fn complete_edge_target(&self) -> u64 {
        self.complete_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn query_surface_agrees_across_backends() {
        let arena = generators::tree_plus_random_edges(
            200,
            400,
            &mut gossip_core::rng::stream_rng(9, 0, 0),
        );
        let sharded = ShardedArenaGraph::from_arena(&arena, 4);
        for u in arena.nodes() {
            assert_eq!(
                GraphQuery::degree(&arena, u),
                GraphQuery::degree(&sharded, u)
            );
            assert_eq!(
                GraphQuery::neighbors(&arena, u),
                GraphQuery::neighbors(&sharded, u)
            );
            for &v in GraphQuery::neighbors(&arena, u) {
                assert!(GraphQuery::has_edge(&sharded, u, v));
            }
        }
        assert_eq!(arena.complete_m(), sharded.complete_edge_target());
        assert_eq!(arena.complete_edge_target(), sharded.complete_edge_target());
    }
}
