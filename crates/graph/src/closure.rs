//! Transitive closure of digraphs.
//!
//! The directed two-hop walk (Section 5 of the paper) terminates when `G_t`
//! contains every arc `(u, v)` with `v` reachable from `u` in `G_0`. The
//! closure of the *initial* graph therefore defines the process's target arc
//! count. Rows are [`BitSet`]s and propagation is word-parallel, so a full
//! closure costs O(n · m / 64) — cheap at experiment scale even though the
//! result has Θ(n²) bits.

use crate::bitset::BitSet;
use crate::directed::DirectedGraph;
use crate::node::NodeId;

/// Per-node reachability rows: `rows[u]` holds every `v != u` reachable from
/// `u` by a nonempty path.
///
/// ```
/// use gossip_graph::{generators, Closure, NodeId};
/// let g = generators::directed_path(4); // 0 -> 1 -> 2 -> 3
/// let c = Closure::of(&g);
/// assert!(c.reaches(NodeId(0), NodeId(3)));
/// assert!(!c.reaches(NodeId(3), NodeId(0)));
/// assert_eq!(c.pair_count(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct Closure {
    rows: Vec<BitSet>,
}

impl Closure {
    /// Computes the transitive closure of `g` by BFS from every node over
    /// bitset rows.
    pub fn of(g: &DirectedGraph) -> Self {
        let n = g.n();
        let mut rows = Vec::with_capacity(n);
        let mut stack: Vec<u32> = Vec::new();
        for u in 0..n {
            let mut row = BitSet::new(n);
            stack.clear();
            // Seed with the direct out-neighbors.
            for &v in g.out_neighbors(NodeId::new(u)) {
                if row.insert(v.index()) {
                    stack.push(v.0);
                }
            }
            while let Some(x) = stack.pop() {
                for &v in g.out_neighbors(NodeId(x)) {
                    if v.index() != u && row.insert(v.index()) {
                        stack.push(v.0);
                    }
                }
            }
            // A node may reach itself through a cycle; the closure target in
            // the paper only concerns pairs u != v, so clear the diagonal.
            row.remove(u);
            rows.push(row);
        }
        Closure { rows }
    }

    /// Whether `v` is reachable from `u` (u != v).
    #[inline]
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.rows[u.index()].contains(v.index())
    }

    /// Reachability row of `u`.
    #[inline]
    pub fn row(&self, u: NodeId) -> &BitSet {
        &self.rows[u.index()]
    }

    /// Total number of ordered reachable pairs `(u, v)`, `u != v` — the arc
    /// count at which the directed two-hop walk terminates.
    pub fn pair_count(&self) -> u64 {
        self.rows.iter().map(|r| r.count() as u64).sum()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.rows.len()
    }
}

/// Checks that `g_t`'s arcs are a subset of `closure` — the key safety
/// invariant of the directed process (it can only ever add arcs that shortcut
/// existing paths).
pub fn arcs_within_closure(g_t: &DirectedGraph, closure: &Closure) -> bool {
    g_t.arcs().all(|a| closure.reaches(a.from, a.to))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_of_path() {
        // 0 -> 1 -> 2 -> 3: closure has 3+2+1 = 6 pairs.
        let g = DirectedGraph::from_arcs(4, [(0, 1), (1, 2), (2, 3)]);
        let c = Closure::of(&g);
        assert_eq!(c.pair_count(), 6);
        assert!(c.reaches(NodeId(0), NodeId(3)));
        assert!(!c.reaches(NodeId(3), NodeId(0)));
    }

    #[test]
    fn closure_of_cycle_is_complete() {
        let n = 6;
        let g = DirectedGraph::from_arcs(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)));
        let c = Closure::of(&g);
        assert_eq!(c.pair_count(), (n * (n - 1)) as u64);
        // Diagonal must be clear even though every node reaches itself.
        for u in 0..n {
            assert!(!c.reaches(NodeId::new(u), NodeId::new(u)));
        }
    }

    #[test]
    fn closure_of_disconnected() {
        let g = DirectedGraph::from_arcs(4, [(0, 1), (2, 3)]);
        let c = Closure::of(&g);
        assert_eq!(c.pair_count(), 2);
        assert!(!c.reaches(NodeId(0), NodeId(2)));
    }

    #[test]
    fn arcs_within_closure_invariant() {
        let g0 = DirectedGraph::from_arcs(4, [(0, 1), (1, 2), (2, 3)]);
        let c = Closure::of(&g0);
        let mut g = g0.clone();
        g.add_arc(NodeId(0), NodeId(2)); // a legal shortcut
        assert!(arcs_within_closure(&g, &c));
        g.add_arc(NodeId(3), NodeId(0)); // not reachable in g0
        assert!(!arcs_within_closure(&g, &c));
    }

    #[test]
    fn pair_count_matches_bfs_reference() {
        use crate::traversal::{bfs_distances, UNREACHABLE};
        // Random-ish fixed digraph; compare closure against per-node BFS.
        let arcs = [
            (0u32, 3u32),
            (3, 1),
            (1, 4),
            (4, 0),
            (2, 4),
            (5, 2),
            (3, 5),
            (6, 6u32.wrapping_sub(1)), // 6 -> 5
        ];
        let g = DirectedGraph::from_arcs(7, arcs);
        let c = Closure::of(&g);
        let mut expect = 0u64;
        #[allow(clippy::needless_range_loop)]
        for u in 0..7 {
            let d = bfs_distances(&g, NodeId(u));
            for v in 0..7usize {
                let reachable = v != u as usize && d[v] != UNREACHABLE;
                assert_eq!(c.reaches(NodeId(u), NodeId::new(v)), reachable);
                expect += reachable as u64;
            }
        }
        assert_eq!(c.pair_count(), expect);
    }
}
