//! Convergence predicates: when has a process "completed"?
//!
//! The paper uses three targets: the complete graph (Theorems 8/12), the
//! transitive closure of the initial digraph (Section 5), and completeness
//! of an induced subgroup (§1's social-network scenario). Checks may keep
//! internal state (`&mut self`) so expensive targets can cache.

use crate::diagnostics;
use crate::process::GossipGraph;
use gossip_graph::{closure::Closure, ArenaGraph, BitSet, DirectedGraph, NodeId};

/// A convergence predicate evaluated after every round.
pub trait ConvergenceCheck<G: GossipGraph>: Send {
    /// Whether the target has been reached on `g`.
    fn is_converged(&mut self, g: &G) -> bool;

    /// Short description of the target for logs.
    fn describe(&self) -> String;
}

/// Undirected target: every pair of nodes *in the same initial component* is
/// adjacent. For a connected start this is the complete graph; for a
/// disconnected start it is the process's actual fixed point (gossip cannot
/// cross components).
#[derive(Clone, Debug)]
pub struct ComponentwiseComplete {
    target_m: u64,
}

impl ComponentwiseComplete {
    /// Computes the fixed-point edge count for the initial graph `g0`.
    pub fn for_graph(g0: &ArenaGraph) -> Self {
        ComponentwiseComplete {
            target_m: gossip_graph::components::componentwise_complete_edges(g0),
        }
    }

    /// The target edge count.
    pub fn target_edges(&self) -> u64 {
        self.target_m
    }
}

// The target is a pure edge count, so one implementation serves both
// undirected backends.
macro_rules! impl_componentwise_complete {
    ($($g:ty),+ $(,)?) => {$(
        impl ConvergenceCheck<$g> for ComponentwiseComplete {
            #[inline]
            fn is_converged(&mut self, g: &$g) -> bool {
                debug_assert!(g.m() <= self.target_m, "grew past the fixed point");
                g.m() >= self.target_m
            }

            fn describe(&self) -> String {
                format!("componentwise-complete ({} edges)", self.target_m)
            }
        }
    )+};
}

impl_componentwise_complete!(ArenaGraph, gossip_graph::ShardedArenaGraph);

/// Directed target: the arc set of the transitive closure of `G_0`
/// (the paper's termination condition in Section 5).
#[derive(Clone, Debug)]
pub struct ClosureReached {
    target_arcs: u64,
}

impl ClosureReached {
    /// Computes the closure size of the initial digraph.
    pub fn for_graph(g0: &DirectedGraph) -> Self {
        ClosureReached {
            target_arcs: Closure::of(g0).pair_count(),
        }
    }

    /// The target arc count.
    pub fn target_arcs(&self) -> u64 {
        self.target_arcs
    }
}

impl ConvergenceCheck<DirectedGraph> for ClosureReached {
    #[inline]
    fn is_converged(&mut self, g: &DirectedGraph) -> bool {
        debug_assert!(g.arc_count() <= self.target_arcs, "grew past the closure");
        g.arc_count() >= self.target_arcs
    }

    fn describe(&self) -> String {
        format!("transitive-closure ({} arcs)", self.target_arcs)
    }
}

/// Subgroup target: all pairs within `members` adjacent. Counting tests
/// each member's row against a membership bitset, and is skipped entirely
/// while the global edge count is too small to possibly contain the
/// clique.
#[derive(Clone, Debug)]
pub struct SubsetComplete {
    members: Vec<NodeId>,
    member_bits: BitSet,
    /// Pairs needed: k * (k - 1).  (Ordered count: each edge seen from both sides.)
    target_ordered: u64,
}

impl SubsetComplete {
    /// Target: the `members` of a graph on `n` nodes form a clique.
    pub fn new(n: usize, members: &[NodeId]) -> Self {
        let mut bits = BitSet::new(n);
        for &u in members {
            bits.insert(u.index());
        }
        assert_eq!(bits.count(), members.len(), "duplicate members");
        let k = members.len() as u64;
        SubsetComplete {
            members: members.to_vec(),
            member_bits: bits,
            target_ordered: k * k.saturating_sub(1),
        }
    }
}

impl ConvergenceCheck<ArenaGraph> for SubsetComplete {
    fn is_converged(&mut self, g: &ArenaGraph) -> bool {
        // Quick reject: the graph as a whole must hold at least C(k,2) edges.
        if 2 * g.m() < self.target_ordered {
            return false;
        }
        let mut ordered = 0u64;
        for &u in &self.members {
            ordered += diagnostics::degree_into(g, u, &self.member_bits) as u64;
        }
        debug_assert!(ordered <= self.target_ordered);
        ordered == self.target_ordered
    }

    fn describe(&self) -> String {
        format!("subset-complete (k = {})", self.members.len())
    }
}

/// Degree target: minimum degree at least `target` (or graph complete).
/// Drives the Lemma 5–7/10–11 min-degree-growth experiments.
#[derive(Clone, Copy, Debug)]
pub struct MinDegreeAtLeast {
    target: usize,
}

impl MinDegreeAtLeast {
    /// Target minimum degree.
    pub fn new(target: usize) -> Self {
        MinDegreeAtLeast { target }
    }
}

impl ConvergenceCheck<ArenaGraph> for MinDegreeAtLeast {
    fn is_converged(&mut self, g: &ArenaGraph) -> bool {
        // Saturating: `n - 1` underflowed for the 0-node graph, which should
        // (vacuously) satisfy any degree target, like the complete graph.
        g.min_degree() >= self.target.min(g.n().saturating_sub(1))
    }

    fn describe(&self) -> String {
        format!("min-degree >= {}", self.target)
    }
}

/// Never converges — for fixed-horizon runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Never;

impl<G: GossipGraph> ConvergenceCheck<G> for Never {
    #[inline]
    fn is_converged(&mut self, _g: &G) -> bool {
        false
    }

    fn describe(&self) -> String {
        "never (fixed horizon)".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn componentwise_complete_connected() {
        let g = generators::path(4);
        let mut c = ComponentwiseComplete::for_graph(&g);
        assert_eq!(c.target_edges(), 6);
        assert!(!c.is_converged(&g));
        let k4 = generators::complete(4);
        assert!(c.is_converged(&k4));
        // Multiple graph-type impls exist now; pick one to name `describe`.
        assert!(ConvergenceCheck::<ArenaGraph>::describe(&c).contains('6'));
    }

    #[test]
    fn componentwise_complete_disconnected() {
        // Two components of sizes 2 and 3: fixed point has 1 + 3 edges.
        let g = ArenaGraph::from_edges(5, [(0, 1), (2, 3), (3, 4)]);
        let mut c = ComponentwiseComplete::for_graph(&g);
        assert_eq!(c.target_edges(), 4);
        let mut done = g.clone();
        done.add_edge(NodeId(2), NodeId(4));
        assert!(c.is_converged(&done));
    }

    #[test]
    fn closure_reached_on_cycle() {
        let g = generators::directed_cycle(4);
        let mut c = ClosureReached::for_graph(&g);
        assert_eq!(c.target_arcs(), 12);
        assert!(!c.is_converged(&g));
        let mut full = g.clone();
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    full.add_arc(NodeId(a), NodeId(b));
                }
            }
        }
        assert!(c.is_converged(&full));
    }

    #[test]
    fn subset_complete_counts_pairs() {
        let g = generators::star(5); // center 0, leaves 1..=4
        let mut c = SubsetComplete::new(5, &[NodeId(0), NodeId(1), NodeId(2)]);
        assert!(!c.is_converged(&g));
        let mut g2 = g.clone();
        g2.add_edge(NodeId(1), NodeId(2));
        assert!(c.is_converged(&g2));
        // The rest of the graph being incomplete doesn't matter.
        assert!(g2.m() < g2.complete_m());
    }

    #[test]
    fn subset_singleton_trivially_converged() {
        let g = generators::path(3);
        let mut c = SubsetComplete::new(3, &[NodeId(1)]);
        assert!(c.is_converged(&g));
    }

    #[test]
    #[should_panic(expected = "duplicate members")]
    fn subset_rejects_duplicates() {
        let _ = SubsetComplete::new(4, &[NodeId(1), NodeId(1)]);
    }

    #[test]
    fn min_degree_check_caps_at_n_minus_1() {
        let g = generators::complete(4);
        let mut c = MinDegreeAtLeast::new(100);
        assert!(
            c.is_converged(&g),
            "complete graph satisfies any degree target"
        );
        let p = generators::path(4);
        let mut c2 = MinDegreeAtLeast::new(2);
        assert!(!c2.is_converged(&p));
    }

    #[test]
    fn degenerate_graphs_converge_vacuously() {
        // Regression: MinDegreeAtLeast computed `n - 1`, underflowing on the
        // 0-node graph. All targets are vacuously met on n ∈ {0, 1}.
        for n in [0usize, 1] {
            let g = ArenaGraph::new(n);
            assert!(MinDegreeAtLeast::new(5).is_converged(&g), "n={n}");
            assert!(
                ComponentwiseComplete::for_graph(&g).is_converged(&g),
                "n={n}"
            );
            let d = DirectedGraph::new(n);
            assert!(ClosureReached::for_graph(&d).is_converged(&d), "n={n}");
        }
    }

    #[test]
    fn never_is_never() {
        let g = generators::complete(3);
        assert!(!<Never as ConvergenceCheck<ArenaGraph>>::is_converged(
            &mut Never, &g
        ));
    }
}
