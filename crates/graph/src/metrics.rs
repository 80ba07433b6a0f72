//! Clustering metrics used by the experiment harness to characterize
//! intermediate graphs `G_t` as the processes run.

use crate::arena::ArenaGraph;
use crate::node::NodeId;

/// Local clustering coefficient of `u`: the fraction of neighbor pairs that
/// are themselves adjacent. `0.0` for degree < 2.
pub fn local_clustering(g: &ArenaGraph, u: NodeId) -> f64 {
    let nbrs = g.neighbors(u);
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    let mut closed = 0u64;
    for i in 0..d {
        for j in (i + 1)..d {
            if g.has_edge(nbrs[i], nbrs[j]) {
                closed += 1;
            }
        }
    }
    closed as f64 / ((d * (d - 1) / 2) as f64)
}

/// Mean local clustering coefficient over all nodes (Watts–Strogatz style).
/// O(sum of deg²) — fine at experiment scale.
pub fn average_clustering(g: &ArenaGraph) -> f64 {
    if g.n() == 0 {
        return 0.0;
    }
    let total: f64 = g.nodes().map(|u| local_clustering(g, u)).sum();
    total / g.n() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn clustering_triangle_vs_path() {
        let tri = generators::complete(3);
        assert!((average_clustering(&tri) - 1.0).abs() < 1e-12);
        let p = generators::path(3);
        assert_eq!(average_clustering(&p), 0.0);
        // Complete graph: all 1.
        let k5 = generators::complete(5);
        assert!((average_clustering(&k5) - 1.0).abs() < 1e-12);
    }
}
