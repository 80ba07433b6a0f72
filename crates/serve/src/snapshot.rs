//! Epoch snapshots: immutable views of a live engine's graph.
//!
//! The service never lets readers touch the engine's working graph — every
//! read goes through the most recently *published* [`Snapshot`], an
//! immutable clone taken between rounds. Cheapness is the whole design:
//! for [`ShardedArenaGraph`](gossip_graph::ShardedArenaGraph) a clone is
//! O(S) Arc bumps (copy-on-write segments, see `gossip-graph`'s sharded
//! module docs), so publishing a snapshot of a million-node graph costs
//! nanoseconds-per-shard, not a deep copy of every adjacency slab. Readers
//! hold an `Arc<Snapshot<G>>`, so a snapshot stays valid for as long as any
//! query still references it, regardless of how many epochs the engine has
//! advanced since.

use gossip_core::GossipGraph;
use gossip_graph::NodeId;

/// One published epoch: the graph as it stood after `round` rounds.
#[derive(Clone, Debug)]
pub struct Snapshot<G> {
    /// Publish counter — strictly increasing, starting at 0 for the
    /// pre-round snapshot of the initial graph.
    pub epoch: u64,
    /// Engine quanta executed when this snapshot was taken.
    pub round: u64,
    /// The graph at that instant. For CoW backends this shares storage
    /// with the live graph until the engine next writes.
    pub graph: G,
}

/// Aggregate statistics of one graph — the "how far along is discovery"
/// read, O(n) per call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoverageStats {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: u64,
    /// Minimum degree across nodes.
    pub min_degree: usize,
    /// Maximum degree across nodes.
    pub max_degree: usize,
    /// Mean degree (`2m / n`).
    pub mean_degree: f64,
    /// Fraction of the complete graph discovered, in `[0, 1]`; `1.0` when
    /// the complete graph has no edges (`n <= 1`).
    pub coverage: f64,
    /// Whether the discovery process has converged.
    pub complete: bool,
}

impl CoverageStats {
    /// Degree / coverage / convergence aggregates of `g`. Walks every node
    /// once.
    pub fn of<G: GossipGraph>(g: &G) -> CoverageStats {
        let n = g.node_count();
        let m = g.edge_count();
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for u in 0..n {
            let d = g.neighbor_row(NodeId::new(u)).len();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        if n == 0 {
            lo = 0;
        }
        let target = g.complete_edge_count();
        CoverageStats {
            nodes: n,
            edges: m,
            min_degree: lo,
            max_degree: hi,
            mean_degree: if n == 0 {
                0.0
            } else {
                2.0 * m as f64 / n as f64
            },
            coverage: if target == 0 {
                1.0
            } else {
                m as f64 / target as f64
            },
            complete: m >= target,
        }
    }
}

impl<G: GossipGraph> Snapshot<G> {
    /// Nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Edges in the snapshot.
    pub fn edge_count(&self) -> u64 {
        self.graph.edge_count()
    }

    /// Who-knows-whom: the neighbor list of `u` at this epoch, in
    /// ascending id order.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.graph.neighbor_row(u)
    }

    /// Whether `u` had discovered `v` by this epoch (a binary search in
    /// `u`'s row).
    pub fn knows(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Degree of `u` at this epoch.
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Degree / coverage / convergence aggregates ([`CoverageStats::of`]).
    pub fn stats(&self) -> CoverageStats {
        CoverageStats::of(&self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::{generators, ArenaGraph, DirectedGraph, ShardedArenaGraph};

    #[test]
    fn stats_on_a_star() {
        let g = generators::star(8);
        let snap = Snapshot {
            epoch: 0,
            round: 0,
            graph: g,
        };
        let s = snap.stats();
        assert_eq!(s.nodes, 8);
        assert_eq!(s.edges, 7);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.max_degree, 7);
        assert!(!s.complete);
        assert!((s.coverage - 7.0 / 28.0).abs() < 1e-12);
        assert!(snap.knows(NodeId(0), NodeId(5)) && !snap.knows(NodeId(1), NodeId(2)));
        assert_eq!(snap.degree(NodeId(0)), 7);
    }

    fn snapshot<G>(graph: G) -> Snapshot<G> {
        Snapshot {
            epoch: 0,
            round: 0,
            graph,
        }
    }

    #[test]
    fn snapshots_agree_across_backends() {
        let g = generators::tree_plus_random_edges(
            200,
            400,
            &mut gossip_core::rng::stream_rng(9, 0, 0),
        );
        let arena = snapshot(g.clone());
        let sharded = snapshot(ShardedArenaGraph::from_arena(&g, 3));
        assert_eq!(arena.stats(), sharded.stats());
        for u in g.nodes() {
            assert_eq!(arena.neighbors(u), sharded.neighbors(u));
            assert_eq!(arena.degree(u), sharded.degree(u));
            for v in g.nodes() {
                assert_eq!(arena.knows(u, v), sharded.knows(u, v));
                assert_eq!(arena.knows(u, v), g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn coverage_edge_cases() {
        // No pair to discover: coverage is vacuously full and complete.
        for n in [0, 1] {
            let s = CoverageStats::of(&ArenaGraph::new(n));
            assert_eq!((s.nodes, s.edges, s.min_degree, s.max_degree), (n, 0, 0, 0));
            assert_eq!(s.mean_degree, 0.0);
            assert_eq!(s.coverage, 1.0);
            assert!(s.complete);
        }
    }

    #[test]
    fn coverage_of_a_digraph_counts_ordered_pairs() {
        // The complete digraph on 3 nodes has 3 * 2 = 6 arcs.
        let path = DirectedGraph::from_arcs(3, [(0, 1), (1, 2)]);
        let s = CoverageStats::of(&path);
        assert_eq!((s.edges, s.min_degree, s.max_degree), (2, 0, 1));
        assert!((s.coverage - 2.0 / 6.0).abs() < 1e-12);
        assert!(!s.complete);
        let all = DirectedGraph::from_arcs(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
        let s = CoverageStats::of(&all);
        assert_eq!(s.coverage, 1.0);
        assert!(s.complete);
    }
}
