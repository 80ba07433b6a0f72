//! # gossip-graph
//!
//! Dynamic-graph substrate for the *Discovery through Gossip* (SPAA 2012)
//! reproduction. The paper's processes run on a graph that **rewires itself
//! every round**: each node samples random neighbors and new edges appear.
//! Everything here is shaped by those two hot operations:
//!
//! * **O(1) uniform neighbor sampling** — [`adjacency::AdjSet`] keeps a dense
//!   member vector purely for sampling;
//! * **O(1) edge insertion with deduplication** — a per-node [`bitset::BitSet`]
//!   answers membership in one load.
//!
//! On top of the two graph types ([`UndirectedGraph`], [`DirectedGraph`]) the
//! crate provides the structural toolkit the paper's statements are phrased
//! in: neighborhood rings `N^i(u)` ([`traversal`]), connectivity and SCCs
//! ([`components`]), transitive closure for the directed process's
//! termination condition ([`closure`]), graph families including the paper's
//! explicit lower-bound constructions ([`generators`]), summary metrics
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

pub mod adjacency;
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
pub mod undirected;

pub use adjacency::AdjSet;
pub use arena::{ArenaGraph, MergeScratch, SliceArena, UniformNeighbors};
pub use bitset::BitSet;
pub use closure::Closure;
pub use directed::DirectedGraph;
pub use node::{Arc, Edge, NodeId};
pub use sharded::{
    HalfEdge, SegSnapshotAssembler, SegSnapshotChunk, ShardPlan, ShardSeg, ShardedArenaGraph,
    SHARD_ALIGN,
};
pub use undirected::UndirectedGraph;
