//! Proof-structure diagnostics: the paper's strongly/weakly "tied"
//! classification (Section 3) made measurable.
//!
//! A node `v` is **strongly tied** to a set `S` at time `t` when
//! `d_t(v, S) >= delta_0 / 2`, and weakly tied otherwise (Definition before
//! Lemma 3, with `delta_0` the minimum degree at round 0). The upper-bound
//! proof walks through cases on how many of `u`'s neighbors are strongly
//! tied to `N²(u)`; these helpers let experiments watch exactly those
//! populations evolve.

use gossip_graph::traversal::rings_up_to;
use gossip_graph::{ArenaGraph, BitSet, NodeId};

/// Tie structure around a focal node `u` at one point in time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TieStats {
    /// `|N¹(u)|` — the degree of `u`.
    pub n1_size: usize,
    /// `|N²(u)|` — nodes at distance exactly 2.
    pub n2_size: usize,
    /// Neighbors of `u` strongly tied to `N²(u)` (>= delta0/2 edges into it).
    pub strongly_tied: usize,
    /// Neighbors of `u` weakly tied to `N²(u)`.
    pub weakly_tied: usize,
}

/// Number of edges from `v` into the set encoded by `bits` — the paper's
/// `d_t(v, S)`.
pub fn degree_into(g: &ArenaGraph, v: NodeId, bits: &BitSet) -> usize {
    g.neighbors(v)
        .iter()
        .filter(|w| bits.contains(w.index()))
        .count()
}

/// Classifies the neighbors of `u` as strongly/weakly tied to `N²(u)` with
/// threshold `delta0 / 2` (edges counted against the *current* graph, the
/// same convention as the proofs).
pub fn tie_stats(g: &ArenaGraph, u: NodeId, delta0: usize) -> TieStats {
    let rings = rings_up_to(g, u, 2);
    let mut n2_bits = BitSet::new(g.n());
    for &v in &rings[2] {
        n2_bits.insert(v.index());
    }
    // Strong tie: d(v, N2) >= delta0 / 2, in the exact integer sense used by
    // the paper (2 * d >= delta0 avoids rounding ambiguity).
    let mut strong = 0;
    let mut weak = 0;
    for &w in &rings[1] {
        if 2 * degree_into(g, w, &n2_bits) >= delta0 {
            strong += 1;
        } else {
            weak += 1;
        }
    }
    TieStats {
        n1_size: rings[1].len(),
        n2_size: rings[2].len(),
        strongly_tied: strong,
        weakly_tied: weak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn tie_stats_on_star_center() {
        // Star center: N1 = leaves, N2 = empty. With delta0 = 1, a strong tie
        // needs >= 0.5 edges into the empty set — impossible.
        let g = generators::star(6);
        let s = tie_stats(&g, NodeId(0), 1);
        assert_eq!(s.n1_size, 5);
        assert_eq!(s.n2_size, 0);
        assert_eq!(s.strongly_tied, 0);
        assert_eq!(s.weakly_tied, 5);
    }

    #[test]
    fn tie_stats_on_star_leaf() {
        // A leaf: N1 = {center}, N2 = other 4 leaves. Center has 4 edges into
        // N2; with delta0 = 1 that is a strong tie.
        let g = generators::star(6);
        let s = tie_stats(&g, NodeId(1), 1);
        assert_eq!(s.n1_size, 1);
        assert_eq!(s.n2_size, 4);
        assert_eq!(s.strongly_tied, 1);
        assert_eq!(s.weakly_tied, 0);
    }

    #[test]
    fn tie_threshold_uses_delta0() {
        // Path 0-1-2-3: from node 0, N1={1}, N2={2}; node 1 has exactly 1
        // edge into N2. delta0 = 1 -> strong (1 >= 0.5); delta0 = 3 -> weak.
        let g = generators::path(4);
        assert_eq!(tie_stats(&g, NodeId(0), 1).strongly_tied, 1);
        assert_eq!(tie_stats(&g, NodeId(0), 3).strongly_tied, 0);
    }

    #[test]
    fn degree_into_counts() {
        let g = generators::complete(5);
        let mut bits = BitSet::new(5);
        bits.insert(1);
        bits.insert(2);
        assert_eq!(degree_into(&g, NodeId(0), &bits), 2);
        assert_eq!(degree_into(&g, NodeId(1), &bits), 1); // own id not adjacent to itself
    }
}
