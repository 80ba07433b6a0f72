//! BFS-based traversal: distances, neighborhood rings `N^i(u)`, diameter.
//!
//! Generic over [`UniformNeighbors`], so the same code serves undirected
//! graphs and digraphs (following out-edges).

use crate::arena::UniformNeighbors;
use crate::node::NodeId;
use std::collections::VecDeque;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances. Unreachable nodes get [`UNREACHABLE`].
pub fn bfs_distances<G: UniformNeighbors>(g: &G, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.neighbor_row(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// All neighborhood rings up to `max_i`, computed in one BFS: `rings[i]`
/// is `N^i(u)`, the nodes at distance exactly `i` from `u` (the paper's
/// `N^i_t(u)` notation, Table 1), in ascending order.
pub fn rings_up_to<G: UniformNeighbors>(g: &G, u: NodeId, max_i: u32) -> Vec<Vec<NodeId>> {
    let dist = bfs_distances(g, u);
    let mut out = vec![Vec::new(); (max_i + 1) as usize];
    for (v, &d) in dist.iter().enumerate() {
        if d != UNREACHABLE && d <= max_i {
            out[d as usize].push(NodeId::new(v));
        }
    }
    out
}

/// Eccentricity of `u`: the largest BFS distance from `u`, or `None` when
/// some node is unreachable from `u`.
pub fn eccentricity<G: UniformNeighbors>(g: &G, u: NodeId) -> Option<u32> {
    let dist = bfs_distances(g, u);
    if dist.contains(&UNREACHABLE) {
        None
    } else {
        dist.into_iter().max()
    }
}

/// Exact diameter by all-pairs BFS (O(n·m)); `None` if disconnected.
/// Intended for the modest `n` used in experiments, not million-node graphs.
pub fn diameter<G: UniformNeighbors>(g: &G) -> Option<u32> {
    let n = g.node_count();
    if n == 0 {
        return Some(0);
    }
    let mut best = 0;
    for u in 0..n {
        let ecc = eccentricity(g, NodeId::new(u))?;
        best = best.max(ecc);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaGraph;

    fn path5() -> ArenaGraph {
        ArenaGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_on_path() {
        let g = path5();
        assert_eq!(bfs_distances(&g, NodeId(0)), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, NodeId(2)), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = ArenaGraph::from_edges(4, [(0, 1)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn rings_match_definition() {
        let g = path5();
        let rings = rings_up_to(&g, NodeId(0), 4);
        assert_eq!(rings[0], vec![NodeId(0)]);
        assert_eq!(rings[2], vec![NodeId(2)]);
        assert_eq!(rings[4], vec![NodeId(4)]);
        let mid = rings_up_to(&g, NodeId(2), 3);
        assert_eq!(mid[1], vec![NodeId(1), NodeId(3)]);
        assert_eq!(mid[3], vec![]);
    }

    #[test]
    fn diameter_of_path_and_star() {
        assert_eq!(diameter(&path5()), Some(4));
        let star = ArenaGraph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(diameter(&star), Some(2));
        let disconnected = ArenaGraph::new(3);
        assert_eq!(diameter(&disconnected), None);
    }

    #[test]
    fn directed_bfs_follows_arcs() {
        use crate::directed::DirectedGraph;
        let g = DirectedGraph::from_arcs(3, [(0, 1), (1, 2)]);
        assert_eq!(bfs_distances(&g, NodeId(0)), vec![0, 1, 2]);
        let back = bfs_distances(&g, NodeId(2));
        assert_eq!(back[0], UNREACHABLE);
    }
}
