//! Whole-graph summary metrics used by the experiment harness to
//! characterize intermediate graphs `G_t` as the processes run.

use crate::arena::ArenaGraph;
use crate::node::NodeId;

/// A point-in-time structural summary of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSummary {
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: u64,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Fraction of possible edges present.
    pub density: f64,
}

/// Computes the summary for an undirected graph.
pub fn summarize(g: &ArenaGraph) -> GraphSummary {
    let n = g.n();
    let possible = if n >= 2 {
        (n as u64) * (n as u64 - 1) / 2
    } else {
        0
    };
    GraphSummary {
        n,
        m: g.m(),
        min_degree: g.min_degree(),
        max_degree: g.max_degree(),
        mean_degree: g.mean_degree(),
        density: if possible == 0 {
            0.0
        } else {
            g.m() as f64 / possible as f64
        },
    }
}

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

/// Count of nodes whose degree is strictly below `threshold` — the paper's
/// proofs track how many nodes still have small degree.
pub fn nodes_below_degree(g: &ArenaGraph, threshold: usize) -> usize {
    g.nodes().filter(|&u| g.degree(u) < threshold).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn summary_of_star() {
        let g = generators::star(5);
        let s = summarize(&g);
        assert_eq!(s.n, 5);
        assert_eq!(s.m, 4);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.max_degree, 4);
        assert!((s.mean_degree - 1.6).abs() < 1e-12);
        assert!((s.density - 0.4).abs() < 1e-12);
    }

    #[test]
    fn summary_edge_cases() {
        let s = summarize(&ArenaGraph::new(0));
        assert_eq!(s.density, 0.0);
        let s1 = summarize(&ArenaGraph::new(1));
        assert_eq!(s1.density, 0.0);
    }

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

    #[test]
    fn nodes_below() {
        let g = generators::star(6);
        assert_eq!(nodes_below_degree(&g, 2), 5);
        assert_eq!(nodes_below_degree(&g, 1), 0);
        assert_eq!(nodes_below_degree(&g, 100), 6);
    }
}
