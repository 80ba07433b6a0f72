//! Exact expected convergence times via absorbing Markov chains.
//!
//! For small `n` the process state is just the edge set, encoded as a bitmask
//! over the `C(n,2)` vertex pairs. One round transitions by the union of all
//! nodes' independently proposed edges; because edges are only ever *added*,
//! the state graph is a DAG ordered by popcount (plus self-loops), so
//! expected hitting times solve by memoized recursion — no linear system.
//!
//! The per-round transition distribution is built by **convolving per-node
//! proposal distributions over added-edge masks** instead of enumerating the
//! joint choice space: the joint space is `Π_u d(u)²` (hopeless even at
//! `n = 5`), the convolution is `O(states_in_support × outcomes_per_node)`
//! per node. This is what makes `n ≤ 5` exact analysis instantaneous — and
//! it is exactly what's needed to verify the paper's Figure 1(c)
//! non-monotonicity example.

use gossip_graph::components::componentwise_complete_edges;
use gossip_graph::{ArenaGraph, NodeId};
// BTreeMap, not HashMap: the hitting-time recursion and the convolution both
// *iterate* these maps while accumulating f64 sums, and HashMap's per-process
// RandomState would reorder the additions — shifting results by ulps between
// runs and breaking the workspace's bit-identical-reruns guarantee (the
// pooled report's stddev of "identical" exact values must be exactly 0).
use std::collections::BTreeMap;

/// Which process to analyze.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessKind {
    /// Push / triangulation (Section 3).
    Push,
    /// Pull / two-hop walk (Section 4).
    Pull,
}

/// Largest `n` for which exact analysis is supported (the state space is
/// `2^C(n,2)`; at `n = 6` the convolution blows past 10⁹ operations).
pub const MAX_EXACT_N: usize = 5;

/// Edge-slot index of pair `(a, b)`, `a < b`, among `C(n,2)` slots.
#[inline]
fn edge_index(n: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < n);
    a * n - a * (a + 1) / 2 + (b - a - 1)
}

/// Encodes a graph as an edge bitmask.
fn graph_mask(g: &ArenaGraph) -> u32 {
    let n = g.n();
    let mut mask = 0u32;
    for e in g.edges() {
        mask |= 1 << edge_index(n, e.a.index(), e.b.index());
    }
    mask
}

/// Adjacency lists recovered from a mask.
fn adjacency(n: usize, mask: u32) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for a in 0..n {
        for b in (a + 1)..n {
            if mask & (1 << edge_index(n, a, b)) != 0 {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
    }
    adj
}

/// Per-node distribution over proposed edge slots: `(Some(slot), p)` or
/// `(None, p)` for a wasted round. Probabilities sum to 1.
fn node_proposal_dist(
    n: usize,
    adj: &[Vec<usize>],
    u: usize,
    kind: ProcessKind,
) -> Vec<(Option<usize>, f64)> {
    let mut out: Vec<(Option<usize>, f64)> = Vec::new();
    let mut none_p = 0.0;
    match kind {
        ProcessKind::Push => {
            let d = adj[u].len();
            if d == 0 {
                return vec![(None, 1.0)];
            }
            let p_pair = 1.0 / (d * d) as f64;
            for (i, &v) in adj[u].iter().enumerate() {
                for (j, &w) in adj[u].iter().enumerate() {
                    if i == j {
                        none_p += p_pair;
                    } else {
                        let slot = edge_index(n, v.min(w), v.max(w));
                        push_prob(&mut out, Some(slot), p_pair);
                    }
                }
            }
        }
        ProcessKind::Pull => {
            let d = adj[u].len();
            if d == 0 {
                return vec![(None, 1.0)];
            }
            for &v in &adj[u] {
                let dv = adj[v].len();
                debug_assert!(dv >= 1, "v adjacent to u must have degree >= 1");
                let p_step = 1.0 / (d * dv) as f64;
                for &w in &adj[v] {
                    if w == u {
                        none_p += p_step;
                    } else {
                        let slot = edge_index(n, u.min(w), u.max(w));
                        push_prob(&mut out, Some(slot), p_step);
                    }
                }
            }
        }
    }
    if none_p > 0.0 {
        out.push((None, none_p));
    }
    out
}

fn push_prob(dist: &mut Vec<(Option<usize>, f64)>, key: Option<usize>, p: f64) {
    if let Some(entry) = dist.iter_mut().find(|(k, _)| *k == key) {
        entry.1 += p;
    } else {
        dist.push((key, p));
    }
}

/// Distribution over the mask of *newly added* edges in one round from state
/// `mask`: the convolution of per-node proposal distributions, with
/// proposals of already-present edges folded into "no change".
fn round_transition(n: usize, mask: u32, kind: ProcessKind) -> BTreeMap<u32, f64> {
    let adj = adjacency(n, mask);
    let mut dist: BTreeMap<u32, f64> = BTreeMap::from([(0u32, 1.0)]);
    for u in 0..n {
        let node_dist = node_proposal_dist(n, &adj, u, kind);
        let mut next: BTreeMap<u32, f64> = BTreeMap::new();
        for (&added, &p) in &dist {
            for &(slot, q) in &node_dist {
                let new_added = match slot {
                    // Proposing an edge that exists in G_t adds nothing.
                    Some(s) if mask & (1 << s) == 0 => added | (1 << s),
                    _ => added,
                };
                *next.entry(new_added).or_insert(0.0) += p * q;
            }
        }
        dist = next;
    }
    dist
}

/// Exact expected number of rounds for `kind` to take `g` to its fixed point
/// (componentwise-complete graph; the complete graph when `g` is connected).
///
/// # Panics
/// Panics if `g.n() > MAX_EXACT_N` or `g.n() < 2`.
pub fn exact_expected_rounds(g: &ArenaGraph, kind: ProcessKind) -> f64 {
    let n = g.n();
    assert!(
        (2..=MAX_EXACT_N).contains(&n),
        "exact analysis supports 2 <= n <= {MAX_EXACT_N}, got {n}"
    );
    // Fixed point: complete within each component of the *initial* graph
    // (components never merge, so the target is invariant along every path).
    let target = {
        let mut t = g.clone();
        let (labels, _) = gossip_graph::components::connected_components(g);
        for a in 0..n {
            for b in (a + 1)..n {
                if labels[a] == labels[b] {
                    t.add_edge(NodeId::new(a), NodeId::new(b));
                }
            }
        }
        debug_assert_eq!(t.m(), componentwise_complete_edges(g));
        graph_mask(&t)
    };
    let mut memo: BTreeMap<u32, f64> = BTreeMap::new();
    expected_from(n, graph_mask(g), target, kind, &mut memo)
}

fn expected_from(
    n: usize,
    mask: u32,
    target: u32,
    kind: ProcessKind,
    memo: &mut BTreeMap<u32, f64>,
) -> f64 {
    if mask == target {
        return 0.0;
    }
    if let Some(&e) = memo.get(&mask) {
        return e;
    }
    let trans = round_transition(n, mask, kind);
    let stay = trans.get(&0).copied().unwrap_or(0.0);
    assert!(
        stay < 1.0 - 1e-12,
        "state {mask:b} is absorbing but below target {target:b}"
    );
    let mut acc = 1.0; // the round we are about to spend
    for (&added, &p) in &trans {
        if added != 0 {
            acc += p * expected_from(n, mask | added, target, kind, memo);
        }
    }
    let e = acc / (1.0 - stay);
    memo.insert(mask, e);
    e
}

/// A non-monotonicity witness: a supergraph that converges slower than its
/// own subgraph in expectation.
#[derive(Clone, Debug)]
pub struct NonMonotonePair {
    /// Edge list of the supergraph `G`.
    pub g_edges: Vec<(u32, u32)>,
    /// Edge list of the subgraph `H ⊂ G` (same node set).
    pub h_edges: Vec<(u32, u32)>,
    /// Exact expected rounds from `G`.
    pub g_expected: f64,
    /// Exact expected rounds from `H`.
    pub h_expected: f64,
}

impl NonMonotonePair {
    /// How much slower the supergraph is (`g_expected - h_expected`).
    pub fn gap(&self) -> f64 {
        self.g_expected - self.h_expected
    }
}

/// Exhaustively searches all connected graphs on `n` nodes (n ≤ 5; intended
/// for `n = 4`, Figure 1(c)'s setting) for pairs `H ⊂ G` with
/// `E[T(G)] > E[T(H)] + tolerance`, both connected and spanning the same
/// node set. Results sorted by decreasing gap.
pub fn find_nonmonotone_pairs(n: usize, kind: ProcessKind, tolerance: f64) -> Vec<NonMonotonePair> {
    assert!((2..=MAX_EXACT_N).contains(&n));
    let slots = n * (n - 1) / 2;
    let all_masks = 1u32 << slots;
    // Expected time per connected mask.
    let mut expected: BTreeMap<u32, f64> = BTreeMap::new();
    let mut connected_masks: Vec<u32> = Vec::new();
    for mask in 1..all_masks {
        let g = mask_to_graph(n, mask);
        if gossip_graph::components::is_connected(&g) {
            connected_masks.push(mask);
            expected.insert(mask, exact_expected_rounds(&g, kind));
        }
    }
    let mut out = Vec::new();
    for &gm in &connected_masks {
        for &hm in &connected_masks {
            // H strict subgraph of G on the same (spanning) node set.
            if hm != gm && hm & gm == hm {
                let (eg, eh) = (expected[&gm], expected[&hm]);
                if eg > eh + tolerance {
                    out.push(NonMonotonePair {
                        g_edges: mask_edges(n, gm),
                        h_edges: mask_edges(n, hm),
                        g_expected: eg,
                        h_expected: eh,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| b.gap().partial_cmp(&a.gap()).unwrap());
    out
}

fn mask_to_graph(n: usize, mask: u32) -> ArenaGraph {
    ArenaGraph::from_edges(n, mask_edges(n, mask))
}

fn mask_edges(n: usize, mask: u32) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if mask & (1 << edge_index(n, a, b)) != 0 {
                edges.push((a as u32, b as u32));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn edge_index_is_bijective() {
        let n = 5;
        let mut seen = std::collections::HashSet::new();
        for a in 0..n {
            for b in (a + 1)..n {
                assert!(seen.insert(edge_index(n, a, b)));
            }
        }
        assert_eq!(seen.len(), 10);
        assert!(seen.iter().all(|&i| i < 10));
    }

    #[test]
    fn complete_graph_needs_zero_rounds() {
        for n in 2..=5 {
            let g = generators::complete(n);
            assert_eq!(exact_expected_rounds(&g, ProcessKind::Push), 0.0);
            assert_eq!(exact_expected_rounds(&g, ProcessKind::Pull), 0.0);
        }
    }

    #[test]
    fn triangle_missing_one_edge_push() {
        // Path 0-1-2. Push: only node 1 can act; picks ordered pair from
        // {0,2}: P(propose (0,2)) = 2/4 = 1/2. Nodes 0, 2 have degree 1:
        // never propose. Geometric(1/2) => E[T] = 2 exactly.
        let g = generators::path(3);
        let e = exact_expected_rounds(&g, ProcessKind::Push);
        assert!((e - 2.0).abs() < 1e-9, "expected 2.0, got {e}");
    }

    #[test]
    fn triangle_missing_one_edge_pull() {
        // Path 0-1-2, pull. Node 0: walk 0->1->{0,2}: P(add (0,2)) = 1/2.
        // Node 2 symmetric: 1/2. Node 1: walks to a leaf then back to 1 —
        // always wasted. Per round P(no add) = 1/4 => E[T] = 1/(3/4) = 4/3.
        let g = generators::path(3);
        let e = exact_expected_rounds(&g, ProcessKind::Pull);
        assert!((e - 4.0 / 3.0).abs() < 1e-9, "expected 4/3, got {e}");
    }

    #[test]
    fn star4_push_matches_hand_computation() {
        // K_{1,3} = center c, leaves 1,2,3. Phase A (3 edges missing): only
        // the center acts (leaves have degree 1); P(add something) = 6/9,
        // E = 3/2. Phase B (2 missing, say after (1,2)): leaves 1,2 now have
        // neighbor sets {c, partner} and can only re-propose (c, partner);
        // still center-only, P = 4/9, E = 9/4. Phase C (1 missing, say
        // (2,3)): the center hits it w.p. 2/9, AND leaf 1 — now degree 3 —
        // introduces 2 to 3 w.p. 2/9: P = 1 - (7/9)², E = 81/32.
        // Total: 3/2 + 9/4 + 81/32 = 201/32 = 6.28125.
        let g = generators::star(4);
        let e = exact_expected_rounds(&g, ProcessKind::Push);
        assert!((e - 201.0 / 32.0).abs() < 1e-9, "expected 6.28125, got {e}");
    }

    #[test]
    fn disconnected_target_is_componentwise() {
        // Two disjoint edges on 4 nodes: already componentwise complete.
        let g = ArenaGraph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(exact_expected_rounds(&g, ProcessKind::Push), 0.0);
        // A path plus an isolated node: converges to K3 + isolated.
        let g2 = ArenaGraph::from_edges(4, [(0, 1), (1, 2)]);
        let e = exact_expected_rounds(&g2, ProcessKind::Push);
        assert!(
            (e - 2.0).abs() < 1e-9,
            "isolated node must not affect E[T]: {e}"
        );
    }

    #[test]
    fn figure_1c_nonmonotonicity_push_and_pull() {
        // The paper's caption: the 4-edge graph (K_{1,4}) is slower than its
        // 3-edge subgraph (K_{1,3}).
        let (g, h) = generators::nonmonotone_pair();
        for kind in [ProcessKind::Push, ProcessKind::Pull] {
            let eg = exact_expected_rounds(&g, kind);
            let eh = exact_expected_rounds(&h, kind);
            assert!(
                eg > eh + 0.5,
                "Figure 1(c) violated for {kind:?}: E[T(G)] = {eg}, E[T(H)] = {eh}"
            );
        }
        // Pinned exact values (regression guard for the solver).
        let eg = exact_expected_rounds(&g, ProcessKind::Push);
        let eh = exact_expected_rounds(&h, ProcessKind::Push);
        assert!((eg - 11.1577).abs() < 1e-3, "E[T(K_1,4)] = {eg}");
        assert!((eh - 201.0 / 32.0).abs() < 1e-9, "E[T(K_1,3)] = {eh}");
    }

    #[test]
    fn search_finds_spanning_nonmonotone_pair() {
        // Same-vertex-set counterexamples exist too: the exhaustive 4-node
        // search must surface the diamond (K4 - e) vs the 4-cycle.
        let pairs = find_nonmonotone_pairs(4, ProcessKind::Push, 0.25);
        assert!(!pairs.is_empty(), "no non-monotone pair found on 4 nodes");
        let (g, h) = generators::nonmonotone_pair_spanning();
        let g_edges: std::collections::BTreeSet<(u32, u32)> =
            g.edges().map(|e| (e.a.0, e.b.0)).collect();
        let h_edges: std::collections::BTreeSet<(u32, u32)> =
            h.edges().map(|e| (e.a.0, e.b.0)).collect();
        let found = pairs.iter().any(|p| {
            p.g_edges
                .iter()
                .copied()
                .collect::<std::collections::BTreeSet<_>>()
                == g_edges
                && p.h_edges
                    .iter()
                    .copied()
                    .collect::<std::collections::BTreeSet<_>>()
                    == h_edges
        });
        assert!(found, "diamond/C4 pair not found by exhaustive search");
        // Every reported pair must be a genuine subgraph pair.
        for p in &pairs {
            let gm: std::collections::BTreeSet<_> = p.g_edges.iter().collect();
            assert!(p.h_edges.iter().all(|e| gm.contains(e)));
            assert!(p.gap() > 0.25);
        }
    }

    #[test]
    fn pinned_exact_values_regression_suite() {
        // Values independently verified by Monte Carlo (tests/exact_vs_montecarlo.rs);
        // pinned here so solver refactors can't silently shift them.
        #[allow(clippy::type_complexity)] // literal fixture table
        let cases: [(&[(u32, u32)], usize, ProcessKind, f64); 6] = [
            // 4-cycle, push.
            (
                &[(0, 1), (1, 2), (2, 3), (3, 0)],
                4,
                ProcessKind::Push,
                2.0792,
            ),
            // 4-cycle, pull.
            (
                &[(0, 1), (1, 2), (2, 3), (3, 0)],
                4,
                ProcessKind::Pull,
                1.7867,
            ),
            // Diamond (K4 - e), push — the spanning counterexample's slow side.
            (
                &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                4,
                ProcessKind::Push,
                2.5312,
            ),
            // Path on 4, push and pull.
            (&[(0, 1), (1, 2), (2, 3)], 4, ProcessKind::Push, 5.3646),
            (&[(0, 1), (1, 2), (2, 3)], 4, ProcessKind::Pull, 3.5196),
            // K_{1,4}, pull (Figure 1(c) G side).
            (
                &[(0, 1), (0, 2), (0, 3), (0, 4)],
                5,
                ProcessKind::Pull,
                5.3975,
            ),
        ];
        for (edges, n, kind, expect) in cases {
            let g = ArenaGraph::from_edges(n, edges.iter().copied());
            let e = exact_expected_rounds(&g, kind);
            assert!(
                (e - expect).abs() < 5e-4,
                "{kind:?} on {edges:?}: expected {expect}, got {e:.6}"
            );
        }
    }

    #[test]
    fn pull_faster_than_push_on_small_graphs() {
        // The two-hop walk reaches two-hop targets directly, so on every
        // connected graph up to n=4 its expected completion is no slower
        // than push's. (Not a theorem of the paper — an exact observation
        // at this scale.)
        for g in [
            generators::path(3),
            generators::path(4),
            generators::star(4),
            generators::cycle(4),
        ] {
            let push = exact_expected_rounds(&g, ProcessKind::Push);
            let pull = exact_expected_rounds(&g, ProcessKind::Pull);
            assert!(
                pull <= push + 1e-9,
                "pull ({pull}) slower than push ({push}) on {:?}",
                gossip_graph::io::edge_tuples(&g)
            );
        }
    }

    #[test]
    fn transition_probabilities_sum_to_one() {
        let g = generators::path(4);
        let mask = graph_mask(&g);
        for kind in [ProcessKind::Push, ProcessKind::Pull] {
            let dist = round_transition(4, mask, kind);
            let total: f64 = dist.values().sum();
            assert!((total - 1.0).abs() < 1e-9, "{kind:?} sums to {total}");
            assert!(dist.values().all(|&p| p >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "exact analysis supports")]
    fn rejects_large_n() {
        let g = generators::path(6);
        let _ = exact_expected_rounds(&g, ProcessKind::Push);
    }
}
