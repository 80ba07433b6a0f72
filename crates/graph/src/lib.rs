//! # gossip-graph
//!
//! Dynamic-graph substrate for the *Discovery through Gossip* (SPAA 2012)
//! reproduction. The paper's processes run on a graph that **rewires itself
//! every round**: each node samples random neighbors and new edges appear.
//! Everything here is shaped by those two hot operations, and every
//! adjacency row is a **sorted slice** of one shared [`SliceArena`]:
//!
//! * **O(1) uniform neighbor sampling** — one index into the row
//!   ([`UniformNeighbors`]);
//! * **edge insertion with deduplication** — a binary search in the row,
//!   and a whole round of proposals merges in one row-ordered pass
//!   ([`ArenaGraph::apply_batch`]).
//!
//! On top of the graph types ([`ArenaGraph`], its owner-partitioned twin
//! [`ShardedArenaGraph`], and [`DirectedGraph`]) the crate provides the
//! structural toolkit the paper's statements are phrased in: neighborhood
//! rings `N^i(u)` ([`traversal`]), connectivity and SCCs ([`components`]),
//! transitive closure for the directed process's termination condition
//! ([`closure`]), graph families including the paper's explicit
//! lower-bound constructions ([`generators`]), summary metrics
//! ([`metrics`]), and an edge-list interchange format ([`io`]).
//!
//! ```
//! use gossip_graph::{generators, NodeId};
//!
//! let mut g = generators::star(8);
//! assert_eq!(g.min_degree(), 1);
//! g.add_edge(NodeId(1), NodeId(2)); // a discovery: two leaves now know each other
//! assert_eq!(g.degree(NodeId(1)), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod bitset;
pub mod closure;
pub mod components;
pub mod directed;
pub mod generators;
pub mod io;
pub mod metrics;
pub mod node;
pub mod sharded;
pub mod traversal;

pub use arena::{ArenaGraph, MergeScratch, SliceArena, UniformNeighbors};
pub use bitset::BitSet;
pub use closure::Closure;
pub use directed::DirectedGraph;
pub use node::{Arc, Edge, NodeId};
pub use sharded::{
    HalfEdge, SegSnapshotAssembler, SegSnapshotChunk, ShardPlan, ShardSeg, ShardedArenaGraph,
    SHARD_ALIGN,
};

/// The undirected graph's name before [`ArenaGraph`] was the only one,
/// kept because the benchmark workspace (`benchmark/src/episode.rs`)
/// imports it and changes to `benchmark/` land on their own.
pub type UndirectedGraph = ArenaGraph;

/// [`ArenaGraph`]'s tests of the graph API it took over, at the module
/// path they have always run under.
#[cfg(test)]
mod undirected {
    mod tests {
        use crate::{ArenaGraph, NodeId};

        #[test]
        fn zero_and_one_node_graphs_do_not_underflow() {
            // Regression: complete_m computed n * (n - 1) in u64, which
            // underflow-panicked in debug builds for n == 0.
            let g0 = ArenaGraph::new(0);
            assert_eq!(g0.n(), 0);
            assert_eq!(g0.complete_m(), 0);
            assert!(g0.is_complete());
            assert_eq!(g0.min_degree(), 0);
            assert_eq!(g0.max_degree(), 0);
            assert_eq!(g0.mean_degree(), 0.0);
            g0.validate().unwrap();

            let g1 = ArenaGraph::new(1);
            assert_eq!(g1.complete_m(), 0);
            assert!(g1.is_complete());
            g1.validate().unwrap();
        }

        #[test]
        fn empty_graph() {
            let g = ArenaGraph::new(5);
            assert_eq!(g.n(), 5);
            assert_eq!(g.m(), 0);
            assert_eq!(g.min_degree(), 0);
            assert!(!g.is_complete());
            assert_eq!(g.complete_m() - g.m(), 10);
            g.validate().unwrap();
        }

        #[test]
        fn add_edges_dedup() {
            let mut g = ArenaGraph::new(4);
            assert!(g.add_edge(NodeId(0), NodeId(1)));
            assert!(!g.add_edge(NodeId(1), NodeId(0)));
            assert!(!g.add_edge(NodeId(2), NodeId(2))); // self-loop no-op
            assert_eq!(g.m(), 1);
            assert!(g.has_edge(NodeId(0), NodeId(1)));
            assert!(g.has_edge(NodeId(1), NodeId(0)));
            g.validate().unwrap();
        }

        #[test]
        fn complete_detection() {
            let mut g = ArenaGraph::new(3);
            g.add_edge(NodeId(0), NodeId(1));
            g.add_edge(NodeId(1), NodeId(2));
            assert!(!g.is_complete());
            g.add_edge(NodeId(0), NodeId(2));
            assert!(g.is_complete());
        }

        #[test]
        fn remove_edge() {
            let mut g = ArenaGraph::from_edges(3, [(0, 1), (1, 2)]);
            assert!(g.remove_edge(NodeId(0), NodeId(1)));
            assert!(!g.remove_edge(NodeId(0), NodeId(1)));
            assert!(!g.remove_edge(NodeId(2), NodeId(2)));
            assert_eq!(g.m(), 1);
            assert_eq!(g.degree(NodeId(1)), 1);
            g.validate().unwrap();
        }

        #[test]
        fn remove_member_drops_all_incident_edges() {
            let mut g = ArenaGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2)]);
            assert_eq!(g.remove_member(NodeId(0)), 3);
            assert_eq!(g.m(), 1);
            assert_eq!(g.degree(NodeId(0)), 0);
            assert!(!g.has_edge(NodeId(0), NodeId(1)));
            g.validate().unwrap();
            // Departed-but-addressable: a re-join bootstraps through add_edge.
            assert!(g.add_edge(NodeId(0), NodeId(4)));
            g.validate().unwrap();
            // Removing an already-isolated member is a counted no-op.
            assert_eq!(g.remove_member(NodeId(3)), 0);
            g.validate().unwrap();
        }

        #[test]
        fn edges_iterator_canonical() {
            let g = ArenaGraph::from_edges(4, [(2, 1), (0, 3), (1, 0)]);
            let es: Vec<(u32, u32)> = g.edges().map(|e| (e.a.0, e.b.0)).collect();
            assert_eq!(es, vec![(0, 1), (0, 3), (1, 2)]);
        }

        #[test]
        fn degree_stats() {
            let g = ArenaGraph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
            assert_eq!(g.min_degree(), 1);
            assert_eq!(g.max_degree(), 3);
            assert!((g.mean_degree() - 1.5).abs() < 1e-12);
            assert_eq!(g.degrees(), vec![3, 1, 1, 1]);
        }

        #[test]
        fn induced_subgraph_relabels() {
            // Path 0-1-2-3; take {3,1,2} -> path 1-2-0 on the new ids.
            let g = ArenaGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
            let (sub, map) = g.induced_subgraph(&[NodeId(3), NodeId(1), NodeId(2)]);
            assert_eq!(sub.n(), 3);
            assert_eq!(sub.m(), 2);
            assert!(sub.has_edge(NodeId(1), NodeId(2)));
            assert!(sub.has_edge(NodeId(2), NodeId(0)));
            assert!(!sub.has_edge(NodeId(0), NodeId(1)));
            assert_eq!(map, vec![NodeId(3), NodeId(1), NodeId(2)]);
            sub.validate().unwrap();
        }

        #[test]
        #[should_panic(expected = "duplicate node")]
        fn induced_subgraph_rejects_duplicates() {
            let g = ArenaGraph::new(3);
            let _ = g.induced_subgraph(&[NodeId(1), NodeId(1)]);
        }

        #[test]
        fn random_neighbor_respects_adjacency() {
            use crate::UniformNeighbors;
            use rand::rngs::SmallRng;
            use rand::SeedableRng;
            let g = ArenaGraph::from_edges(5, [(0, 1), (0, 2)]);
            let mut rng = SmallRng::seed_from_u64(11);
            for _ in 0..100 {
                let v = g.random_neighbor(NodeId(0), &mut rng).unwrap();
                assert!(v == NodeId(1) || v == NodeId(2));
            }
            assert!(g.random_neighbor(NodeId(4), &mut rng).is_none());
        }
    }
}
