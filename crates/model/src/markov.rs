//! Exact expected convergence times via absorbing Markov chains, read off
//! the kernels' choice trees.
//!
//! For small `n` the process state is just the edge set, encoded as a
//! bitmask over the `C(n,2)` vertex pairs ([`pair_index`]). One round
//! transitions by the union of all nodes' independently proposed edges;
//! because edges are only ever *added*, the state graph is a DAG ordered
//! by popcount (plus self-loops), so expected hitting times solve by
//! memoized recursion — no linear system. Components never merge either,
//! so no target is needed: the fixed point is the state whose round adds
//! no edge ("no move"), worth 0 rounds. A state's value depends on its mask
//! alone, so one memo, indexed by mask, serves every start a search solves.
//!
//! Each node's one-round distribution over proposed pairs comes from the
//! same kernel the engines run: every leaf of its choice tree
//! ([`crate::enumerate`]) has probability `1 / Π domains`. The per-round
//! transition distribution is built by **convolving these per-node
//! distributions over added-edge masks** instead of enumerating the joint
//! choice space: the joint space is `Π_u d(u)²` (hopeless even at
//! `n = 5`), the convolution is `O(states_in_support × outcomes_per_node)`
//! per node. This is what makes `n ≤ 5` exact analysis instantaneous — and
//! it is exactly what's needed to verify the paper's Figure 1(c)
//! non-monotonicity example.

use crate::enumerate::{rows_to_lists, walk_leaves, World};
use crate::instance::{is_connected, pair_index, Instance, MAX_N};
use gossip_core::{
    Effects, HybridKernel, NodeState, ProtocolKernel, PullKernel, PushKernel, RuleId,
};
use gossip_graph::{ArenaGraph, NodeId};
// BTreeMap, not HashMap: the hitting-time recursion and the convolution both
// *iterate* these maps while accumulating f64 sums, and HashMap's per-process
// RandomState would reorder the additions — shifting results by ulps between
// runs and breaking the workspace's bit-identical-reruns guarantee (the
// pooled report's stddev of "identical" exact values must be exactly 0).
use std::collections::BTreeMap;

/// Node `u`'s one-round distribution over the pair mask it proposes, one
/// entry per distinct mask. Entries keep first-appearance order with the
/// empty proposal moved last: the order of the f64 additions behind the
/// digest pinned in `tests/exact_vs_montecarlo.rs`, so any other order
/// moves exact values by ulps.
fn node_dist<K: ProtocolKernel>(
    kernel: &K,
    n: usize,
    lists: &[Vec<NodeId>],
    u: usize,
) -> Vec<(u16, f64)> {
    let mut dist: Vec<(u16, f64)> = Vec::new();
    let mut leaf = |_: &[usize], effects: &Effects, _: NodeState, product: u64| {
        let p = 1.0 / product as f64;
        let m = effects.connects.as_slice().iter().fold(0u16, |m, &(a, b)| {
            m | 1 << pair_index(n, a.min(b).index(), a.max(b).index())
        });
        match dist.iter_mut().find(|(k, _)| *k == m) {
            Some(entry) => entry.1 += p,
            None => dist.push((m, p)),
        }
    };
    walk_leaves(
        kernel,
        World::Graph,
        lists,
        u,
        &NodeState::Stateless,
        &mut leaf,
    );
    if let Some(i) = dist.iter().position(|&(m, _)| m == 0) {
        let none = dist.remove(i);
        dist.push(none);
    }
    dist
}

/// Distribution over the mask of *newly added* edges in one round from state
/// `mask`: the convolution of per-node proposal distributions, with
/// proposals of already-present edges folded into "no change".
fn round_transition<K: ProtocolKernel>(kernel: &K, n: usize, mask: u16) -> BTreeMap<u16, f64> {
    let rows = Instance { n, edge_mask: mask }.initial_rows();
    let lists = rows_to_lists(&rows, n);
    let mut dist: BTreeMap<u16, f64> = BTreeMap::from([(0u16, 1.0)]);
    for u in 0..n {
        let node = node_dist(kernel, n, &lists, u);
        let mut next: BTreeMap<u16, f64> = BTreeMap::new();
        for (&added, &p) in &dist {
            for &(m, q) in &node {
                // Proposing an edge that exists in G_t adds nothing.
                *next.entry(added | (m & !mask)).or_insert(0.0) += p * q;
            }
        }
        dist = next;
    }
    dist
}

/// Expected rounds from edge mask `mask` to its fixed point, the state
/// whose round adds no edge, memoised in `memo` by mask (`NaN`: not yet
/// solved).
fn expected<K: ProtocolKernel>(kernel: &K, n: usize, mask: u16, memo: &mut [f64]) -> f64 {
    let known = memo[usize::from(mask)];
    if !known.is_nan() {
        return known;
    }
    let trans = round_transition(kernel, n, mask);
    let e = if trans.range(1..).next().is_none() {
        0.0
    } else {
        let stay = trans.get(&0).copied().unwrap_or(0.0);
        let mut acc = 1.0; // the round we are about to spend
        for (&added, &p) in trans.range(1..) {
            acc += p * expected(kernel, n, mask | added, memo);
        }
        acc / (1.0 - stay)
    };
    memo[usize::from(mask)] = e;
    e
}

/// Exact expected rounds under `rule` from any `n`-node edge mask, every
/// call sharing one memo.
fn solver(n: usize, rule: RuleId) -> impl FnMut(u16) -> f64 {
    let mut memo = vec![f64::NAN; 1 << (n * (n - 1) / 2)];
    move |start| match rule {
        RuleId::Push => expected(&PushKernel, n, start, &mut memo),
        RuleId::Pull => expected(&PullKernel, n, start, &mut memo),
        RuleId::Hybrid => expected(&HybridKernel, n, start, &mut memo),
    }
}

/// Exact expected number of rounds for `rule` to take `g` to its fixed point
/// (componentwise-complete graph; the complete graph when `g` is connected).
///
/// # Panics
/// Panics if `g.n() > MAX_N` or `g.n() < 2`.
pub fn exact_expected_rounds(g: &ArenaGraph, rule: RuleId) -> f64 {
    let n = g.n();
    assert!(
        (2..=MAX_N).contains(&n),
        "exact analysis supports 2 <= n <= {MAX_N}, got {n}"
    );
    let start = g.edges().fold(0u16, |m, e| {
        m | 1 << pair_index(n, e.a.index(), e.b.index())
    });
    solver(n, rule)(start)
}

/// A non-monotonicity witness: a supergraph that converges slower than its
/// own subgraph in expectation.
#[derive(Clone, Debug)]
pub struct NonMonotonePair {
    /// Edge list of the supergraph `G`.
    pub g_edges: Vec<(usize, usize)>,
    /// Edge list of the subgraph `H ⊂ G` (same node set).
    pub h_edges: Vec<(usize, usize)>,
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
pub fn find_nonmonotone_pairs(n: usize, rule: RuleId, tolerance: f64) -> Vec<NonMonotonePair> {
    assert!((2..=MAX_N).contains(&n));
    let complete = (1u16 << (n * (n - 1) / 2)) - 1;
    let mut solve = solver(n, rule);
    // Expected time per connected mask.
    let connected: Vec<(Instance, f64)> = (1..=complete)
        .filter(|&edge_mask| is_connected(n, edge_mask))
        .map(|edge_mask| (Instance { n, edge_mask }, solve(edge_mask)))
        .collect();
    let mut out = Vec::new();
    for &(g, eg) in &connected {
        for &(h, eh) in &connected {
            // H strict subgraph of G on the same (spanning) node set.
            let strict_subgraph = h != g && h.edge_mask & g.edge_mask == h.edge_mask;
            if strict_subgraph && eg > eh + tolerance {
                out.push(NonMonotonePair {
                    g_edges: g.edges(),
                    h_edges: h.edges(),
                    g_expected: eg,
                    h_expected: eh,
                });
            }
        }
    }
    out.sort_by(|a, b| b.gap().total_cmp(&a.gap()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::components::connected_components;
    use gossip_graph::generators;
    use std::collections::BTreeSet;

    #[test]
    fn complete_graph_needs_zero_rounds() {
        for n in 2..=5 {
            let g = generators::complete(n);
            for rule in RuleId::ALL {
                assert_eq!(exact_expected_rounds(&g, rule), 0.0);
            }
        }
    }

    #[test]
    fn triangle_missing_one_edge_push() {
        // Path 0-1-2. Push: only node 1 can act; picks ordered pair from
        // {0,2}: P(propose (0,2)) = 2/4 = 1/2. Nodes 0, 2 have degree 1:
        // never propose. Geometric(1/2) => E[T] = 2 exactly.
        let g = generators::path(3);
        let e = exact_expected_rounds(&g, RuleId::Push);
        assert!((e - 2.0).abs() < 1e-9, "expected 2.0, got {e}");
    }

    #[test]
    fn triangle_missing_one_edge_pull() {
        // Path 0-1-2, pull. Node 0: walk 0->1->{0,2}: P(add (0,2)) = 1/2.
        // Node 2 symmetric: 1/2. Node 1: walks to a leaf then back to 1 —
        // always wasted. Per round P(no add) = 1/4 => E[T] = 1/(3/4) = 4/3.
        let g = generators::path(3);
        let e = exact_expected_rounds(&g, RuleId::Pull);
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
        let e = exact_expected_rounds(&g, RuleId::Push);
        assert!((e - 201.0 / 32.0).abs() < 1e-9, "expected 6.28125, got {e}");
    }

    #[test]
    fn disconnected_target_is_componentwise() {
        // Two disjoint edges on 4 nodes: already componentwise complete.
        let g = ArenaGraph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(exact_expected_rounds(&g, RuleId::Push), 0.0);
        // A path plus an isolated node: converges to K3 + isolated.
        let g2 = ArenaGraph::from_edges(4, [(0, 1), (1, 2)]);
        let e = exact_expected_rounds(&g2, RuleId::Push);
        assert!(
            (e - 2.0).abs() < 1e-9,
            "isolated node must not affect E[T]: {e}"
        );
    }

    #[test]
    fn zero_exactly_when_every_component_is_a_clique() {
        // The whole input domain: every mask on 2..=5 nodes, every rule. A
        // kernel stuck below its componentwise completion reads 0 here.
        for n in 2..=MAX_N {
            for edge_mask in 0..1u16 << (n * (n - 1) / 2) {
                let inst = Instance { n, edge_mask };
                let edges = inst.edges();
                let g = ArenaGraph::from_edges(n, edges.iter().map(|&(a, b)| (a as u32, b as u32)));
                let (labels, _) = connected_components(&g);
                let labels = &labels;
                // Every edge joins one component, so the components are
                // cliques exactly when the edges fill every same-component pair.
                let cliques = edges.len()
                    == (0..n)
                        .flat_map(|a| (a + 1..n).filter(move |&b| labels[a] == labels[b]))
                        .count();
                for rule in RuleId::ALL {
                    let e = exact_expected_rounds(&g, rule);
                    let ok = if cliques {
                        e == 0.0
                    } else {
                        e.is_finite() && e >= 1.0
                    };
                    assert!(ok, "{rule} on {}: {e}", inst.describe());
                }
            }
        }
    }

    #[test]
    fn figure_1c_nonmonotonicity_push_and_pull() {
        // The paper's caption: the 4-edge graph (K_{1,4}) is slower than its
        // 3-edge subgraph (K_{1,3}).
        let (g, h) = generators::nonmonotone_pair();
        for rule in [RuleId::Push, RuleId::Pull] {
            let eg = exact_expected_rounds(&g, rule);
            let eh = exact_expected_rounds(&h, rule);
            assert!(
                eg > eh + 0.5,
                "Figure 1(c) violated for {rule}: E[T(G)] = {eg}, E[T(H)] = {eh}"
            );
        }
        // Pinned exact values (regression guard for the solver).
        let eg = exact_expected_rounds(&g, RuleId::Push);
        let eh = exact_expected_rounds(&h, RuleId::Push);
        assert!((eg - 11.1577).abs() < 1e-3, "E[T(K_1,4)] = {eg}");
        assert!((eh - 201.0 / 32.0).abs() < 1e-9, "E[T(K_1,3)] = {eh}");
    }

    #[test]
    fn search_finds_spanning_nonmonotone_pair() {
        // Same-vertex-set counterexamples exist too: the exhaustive 4-node
        // search must surface the diamond (K4 - e) vs the 4-cycle.
        let pairs = find_nonmonotone_pairs(4, RuleId::Push, 0.25);
        assert!(!pairs.is_empty(), "no non-monotone pair found on 4 nodes");
        let (g, h) = generators::nonmonotone_pair_spanning();
        let edge_set = |g: &ArenaGraph| -> BTreeSet<(usize, usize)> {
            g.edges().map(|e| (e.a.index(), e.b.index())).collect()
        };
        let found = pairs.iter().any(|p| {
            BTreeSet::from_iter(p.g_edges.clone()) == edge_set(&g)
                && BTreeSet::from_iter(p.h_edges.clone()) == edge_set(&h)
        });
        assert!(found, "diamond/C4 pair not found by exhaustive search");
        // Every reported pair must be a genuine subgraph pair.
        for p in &pairs {
            let gm: BTreeSet<_> = p.g_edges.iter().collect();
            assert!(p.h_edges.iter().all(|e| gm.contains(e)));
            assert!(p.gap() > 0.25);
        }
    }

    #[test]
    fn pinned_exact_values_regression_suite() {
        // Values independently verified by Monte Carlo (tests/exact_vs_montecarlo.rs);
        // pinned here so solver refactors can't silently shift them.
        #[allow(clippy::type_complexity)] // literal fixture table
        let cases: [(&[(u32, u32)], usize, RuleId, f64); 6] = [
            // 4-cycle, push.
            (&[(0, 1), (1, 2), (2, 3), (3, 0)], 4, RuleId::Push, 2.0792),
            // 4-cycle, pull.
            (&[(0, 1), (1, 2), (2, 3), (3, 0)], 4, RuleId::Pull, 1.7867),
            // Diamond (K4 - e), push — the spanning counterexample's slow side.
            (
                &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                4,
                RuleId::Push,
                2.5312,
            ),
            // Path on 4, push and pull.
            (&[(0, 1), (1, 2), (2, 3)], 4, RuleId::Push, 5.3646),
            (&[(0, 1), (1, 2), (2, 3)], 4, RuleId::Pull, 3.5196),
            // K_{1,4}, pull (Figure 1(c) G side).
            (&[(0, 1), (0, 2), (0, 3), (0, 4)], 5, RuleId::Pull, 5.3975),
        ];
        for (edges, n, rule, expect) in cases {
            let g = ArenaGraph::from_edges(n, edges.iter().copied());
            let e = exact_expected_rounds(&g, rule);
            assert!(
                (e - expect).abs() < 5e-4,
                "{rule} on {edges:?}: expected {expect}, got {e:.6}"
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
            let push = exact_expected_rounds(&g, RuleId::Push);
            let pull = exact_expected_rounds(&g, RuleId::Pull);
            assert!(
                pull <= push + 1e-9,
                "pull ({pull}) slower than push ({push}) on {:?}",
                gossip_graph::io::edge_tuples(&g)
            );
        }
    }

    #[test]
    fn transition_probabilities_sum_to_one() {
        // Path 0-1-2-3: pairs (0,1), (1,2), (2,3).
        let mask = 1 << pair_index(4, 0, 1) | 1 << pair_index(4, 1, 2) | 1 << pair_index(4, 2, 3);
        for dist in [
            round_transition(&PushKernel, 4, mask),
            round_transition(&PullKernel, 4, mask),
            round_transition(&HybridKernel, 4, mask),
        ] {
            let total: f64 = dist.values().sum();
            assert!((total - 1.0).abs() < 1e-9, "sums to {total}");
            assert!(dist.values().all(|&p| p >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "exact analysis supports")]
    fn rejects_large_n() {
        let g = generators::path(6);
        let _ = exact_expected_rounds(&g, RuleId::Push);
    }
}
