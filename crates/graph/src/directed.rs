//! The mutable directed graph for the directed two-hop walk (Section 5).

use crate::arena::{SliceArena, UniformNeighbors};
use crate::node::{Arc, NodeId};

/// A simple directed graph over nodes `0..n`.
///
/// Only out-adjacency is indexed: the directed pull process samples along
/// out-edges, and termination is defined against the transitive closure of
/// the *initial* graph (computed separately in [`crate::closure`]). Each
/// out-row is a sorted slice of one [`SliceArena`], the layout
/// [`crate::ArenaGraph`]'s rows use: membership is a binary search (one
/// bit on a [dense row](crate::arena#dense-rows)) and a uniform draw is one
/// index. It stays its own type because an arc is
/// one half-edge, not two, so none of the undirected graph's mirror
/// bookkeeping applies.
#[derive(Clone, Debug)]
pub struct DirectedGraph {
    out: SliceArena,
    arcs: u64,
}

/// For directed graphs the "neighbor" row is the **out**-neighbor list —
/// the surface the directed two-hop walk samples along.
impl UniformNeighbors for DirectedGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.n()
    }
    #[inline]
    fn neighbor_row(&self, u: NodeId) -> &[NodeId] {
        self.out_neighbors(u)
    }
}

impl DirectedGraph {
    /// Creates an empty digraph with `n` nodes.
    pub fn new(n: usize) -> Self {
        DirectedGraph {
            out: SliceArena::new(n, n),
            arcs: 0,
        }
    }

    /// Builds a digraph from an arc list; duplicates ignored.
    pub fn from_arcs(n: usize, arcs: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut g = DirectedGraph::new(n);
        for (a, b) in arcs {
            g.add_arc(NodeId(a), NodeId(b));
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.out.lists()
    }

    /// Number of arcs.
    #[inline]
    pub fn arc_count(&self) -> u64 {
        self.arcs
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out.len(u.index())
    }

    /// Out-neighbors of `u`, in ascending id order.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.out.slice(u.index())
    }

    /// Arc membership test (one bit on a dense row, else a binary search).
    #[inline]
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.out.contains_sorted(u.index(), v)
    }

    /// Adds arc `u -> v`; returns `true` if new. `u == v` is a no-op.
    #[inline]
    pub fn add_arc(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || !self.out.insert_sorted(u.index(), v) {
            return false;
        }
        self.arcs += 1;
        true
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n() as u32).map(NodeId)
    }

    /// Iterates over all arcs, by tail then head.
    pub fn arcs(&self) -> impl Iterator<Item = Arc> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| Arc::new(u, v)))
    }

    /// Structural validation for tests: sorted rows, each dense row's
    /// sidecar set exactly at its ids, no self-loops, arc count consistent.
    pub fn validate(&self) -> Result<(), String> {
        let mut count = 0u64;
        for u in self.nodes() {
            let row = self.out_neighbors(u);
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("out-row of {u:?} not strictly sorted"));
            }
            self.out.check_sidecar(u.index())?;
            if row.binary_search(&u).is_ok() {
                return Err(format!("self-loop at {u:?}"));
            }
            count += row.len() as u64;
        }
        if count != self.arcs {
            return Err(format!("arc count mismatch: {} vs {count}", self.arcs));
        }
        Ok(())
    }

    /// The underlying undirected (symmetrized) edge count — used for weak
    /// connectivity checks.
    pub fn symmetrized_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.arcs().map(|a| (a.from, a.to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arcs_are_directed() {
        let mut g = DirectedGraph::new(3);
        assert!(g.add_arc(NodeId(0), NodeId(1)));
        assert!(g.has_arc(NodeId(0), NodeId(1)));
        assert!(!g.has_arc(NodeId(1), NodeId(0)));
        assert!(!g.add_arc(NodeId(0), NodeId(1)));
        assert!(g.add_arc(NodeId(1), NodeId(0)));
        assert_eq!(g.arc_count(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn self_loop_is_noop() {
        let mut g = DirectedGraph::new(2);
        assert!(!g.add_arc(NodeId(0), NodeId(0)));
        assert_eq!(g.arc_count(), 0);
    }

    #[test]
    fn out_degree_and_sampling() {
        let g = DirectedGraph::from_arcs(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.out_degree(NodeId(0)), 3);
        assert_eq!(g.out_degree(NodeId(1)), 0);
        assert_eq!(g.node_count(), 4);
        // The row a walk samples along is the out-row.
        assert!(g.neighbor_row(NodeId(1)).is_empty());
        assert_eq!(g.neighbor_row(NodeId(0)), g.out_neighbors(NodeId(0)));
    }

    #[test]
    fn arc_iterator() {
        let g = DirectedGraph::from_arcs(3, [(0, 1), (1, 2), (2, 0)]);
        let mut arcs: Vec<(u32, u32)> = g.arcs().map(|a| (a.from.0, a.to.0)).collect();
        arcs.sort();
        assert_eq!(arcs, vec![(0, 1), (1, 2), (2, 0)]);
    }
}
