//! Node identifiers.
//!
//! Nodes are dense integers in `0..n`. A dedicated newtype keeps the rest of
//! the codebase from mixing node ids with counts, rounds, or edge indices,
//! while staying a zero-cost `u32` at runtime (graphs in the paper's regime
//! are far below `u32::MAX` nodes; a complete graph on even 2^20 nodes would
//! already need terabytes of adjacency).

use std::fmt;

/// A node identifier: an index into the graph's node table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `idx` does not fit in `u32`.
    #[inline]
    pub fn new(idx: usize) -> Self {
        debug_assert!(idx <= u32::MAX as usize, "node index {idx} overflows u32");
        NodeId(idx as u32)
    }

    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// An undirected edge, stored with endpoints in canonical (sorted) order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
}

impl Edge {
    /// Creates a canonical undirected edge; endpoints are sorted.
    ///
    /// # Panics
    /// Panics if `a == b` (self-loops are never part of the model).
    #[inline]
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "self-loop {a:?}");
        if a < b {
            Edge { a, b }
        } else {
            Edge { a: b, b: a }
        }
    }

    /// Returns both endpoints.
    #[inline]
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

/// A directed arc `from -> to`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Arc {
    /// Tail (source) of the arc.
    pub from: NodeId,
    /// Head (target) of the arc.
    pub to: NodeId,
}

impl Arc {
    /// Creates a directed arc.
    ///
    /// # Panics
    /// Panics if `from == to`.
    #[inline]
    pub fn new(from: NodeId, to: NodeId) -> Self {
        assert_ne!(from, to, "self-loop {from:?}");
        Arc { from, to }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(format!("{n}"), "42");
        assert_eq!(format!("{n:?}"), "n42");
    }

    #[test]
    fn edge_is_canonical() {
        let e1 = Edge::new(NodeId(5), NodeId(2));
        let e2 = Edge::new(NodeId(2), NodeId(5));
        assert_eq!(e1, e2);
        assert_eq!(e1.a, NodeId(2));
        assert_eq!(e1.b, NodeId(5));
        assert_eq!(e1.endpoints(), (NodeId(2), NodeId(5)));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(NodeId(3), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn arc_rejects_self_loop() {
        let _ = Arc::new(NodeId(3), NodeId(3));
    }

    #[test]
    fn edge_ordering_is_lexicographic() {
        let e1 = Edge::new(NodeId(0), NodeId(1));
        let e2 = Edge::new(NodeId(0), NodeId(2));
        let e3 = Edge::new(NodeId(1), NodeId(2));
        assert!(e1 < e2 && e2 < e3);
    }
}
