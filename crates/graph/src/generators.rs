//! Graph families used across the paper's experiments.
//!
//! Undirected families exercise the "any connected graph" quantifier of
//! Theorems 8 and 12; [`complete_minus_k`] drives the Theorem 9/13 lower
//! bounds; [`theorem14_graph`] and [`theorem15_graph`] are the paper's
//! explicit directed lower-bound constructions; [`nonmonotone_pair`] is the
//! Figure 1(c) example (verified exactly by `gossip-model::markov`).
//!
//! Random generators take a caller-supplied RNG so experiments stay
//! reproducible under the engine's seeding discipline.

use crate::arena::ArenaGraph;
use crate::components::{is_connected, is_strongly_connected};
use crate::directed::DirectedGraph;
use crate::node::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

// ---------------------------------------------------------------------------
// Deterministic undirected families
// ---------------------------------------------------------------------------

/// Path `0 - 1 - ... - n-1`.
pub fn path(n: usize) -> ArenaGraph {
    assert!(n >= 1, "path needs >= 1 node");
    ArenaGraph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
}

/// Cycle on `n >= 3` nodes.
pub fn cycle(n: usize) -> ArenaGraph {
    assert!(n >= 3, "cycle needs >= 3 nodes");
    ArenaGraph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)))
}

/// Star with center `0` and `n - 1` leaves.
pub fn star(n: usize) -> ArenaGraph {
    assert!(n >= 2, "star needs >= 2 nodes");
    ArenaGraph::from_edges(n, (1..n as u32).map(|i| (0, i)))
}

/// Double star: two adjacent centers `0`, `1`, leaves split between them.
/// A classic slow case for local processes (leaves see only their center).
pub fn double_star(n: usize) -> ArenaGraph {
    assert!(n >= 2, "double star needs >= 2 nodes");
    let mut edges = vec![(0u32, 1u32)];
    for i in 2..n as u32 {
        edges.push((i % 2, i));
    }
    ArenaGraph::from_edges(n, edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> ArenaGraph {
    let mut g = ArenaGraph::new(n);
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            g.add_edge(NodeId(a), NodeId(b));
        }
    }
    g
}

/// Complete balanced binary tree on `n` nodes (heap indexing).
pub fn binary_tree(n: usize) -> ArenaGraph {
    assert!(n >= 1);
    ArenaGraph::from_edges(n, (1..n as u32).map(|i| ((i - 1) / 2, i)))
}

/// `rows x cols` grid; node `(r, c)` is `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> ArenaGraph {
    assert!(rows >= 1 && cols >= 1);
    let mut g = ArenaGraph::new(rows * cols);
    let id = |r: usize, c: usize| NodeId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    g
}

/// `d`-dimensional hypercube on `2^d` nodes.
pub fn hypercube(d: u32) -> ArenaGraph {
    let n = 1usize << d;
    let mut g = ArenaGraph::new(n);
    for u in 0..n {
        for bit in 0..d {
            let v = u ^ (1 << bit);
            if v > u {
                g.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
    }
    g
}

/// Barbell: two cliques of size `k` joined by a single bridge edge
/// (`n = 2k`). The bridge is the discovery bottleneck.
pub fn barbell(k: usize) -> ArenaGraph {
    assert!(k >= 2, "barbell needs cliques of size >= 2");
    let n = 2 * k;
    let mut g = ArenaGraph::new(n);
    for a in 0..k as u32 {
        for b in (a + 1)..k as u32 {
            g.add_edge(NodeId(a), NodeId(b));
            g.add_edge(NodeId(a + k as u32), NodeId(b + k as u32));
        }
    }
    g.add_edge(NodeId(k as u32 - 1), NodeId(k as u32));
    g
}

/// Lollipop: clique of size `k` with a path of `tail` extra nodes attached.
pub fn lollipop(k: usize, tail: usize) -> ArenaGraph {
    assert!(k >= 2);
    let n = k + tail;
    let mut g = ArenaGraph::new(n);
    for a in 0..k as u32 {
        for b in (a + 1)..k as u32 {
            g.add_edge(NodeId(a), NodeId(b));
        }
    }
    for i in 0..tail {
        let prev = if i == 0 { k - 1 } else { k + i - 1 };
        g.add_edge(NodeId::new(prev), NodeId::new(k + i));
    }
    g
}

// ---------------------------------------------------------------------------
// Random undirected families
// ---------------------------------------------------------------------------

/// Uniform random labeled tree via Prüfer-sequence decoding.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> ArenaGraph {
    assert!(n >= 1);
    if n == 1 {
        return ArenaGraph::new(1);
    }
    if n == 2 {
        return ArenaGraph::from_edges(2, [(0, 1)]);
    }
    let seq: Vec<u32> = (0..n - 2).map(|_| rng.random_range(0..n as u32)).collect();
    let mut degree = vec![1u32; n];
    for &s in &seq {
        degree[s as usize] += 1;
    }
    let mut g = ArenaGraph::new(n);
    // Min-heap over current leaves; n is small enough that a sorted scan
    // via BinaryHeap is the clear choice.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut leaves: BinaryHeap<Reverse<u32>> = (0..n as u32)
        .filter(|&u| degree[u as usize] == 1)
        .map(Reverse)
        .collect();
    for &s in &seq {
        let Reverse(leaf) = leaves.pop().expect("pruefer decode underflow");
        g.add_edge(NodeId(leaf), NodeId(s));
        degree[s as usize] -= 1;
        if degree[s as usize] == 1 {
            leaves.push(Reverse(s));
        }
    }
    let Reverse(a) = leaves.pop().unwrap();
    let Reverse(b) = leaves.pop().unwrap();
    g.add_edge(NodeId(a), NodeId(b));
    g
}

/// Erdős–Rényi `G(n, m)`: `m` distinct uniform edges, conditioned on the
/// result being connected (resampled up to `tries` times).
///
/// # Panics
/// Panics if a connected sample is not found (m too small).
pub fn gnm_connected<R: Rng + ?Sized>(n: usize, m: u64, rng: &mut R) -> ArenaGraph {
    let max_m = (n as u64) * (n as u64 - 1) / 2;
    assert!(m >= n as u64 - 1, "m too small to connect {n} nodes");
    assert!(m <= max_m, "m exceeds complete graph");
    let tries = 1000;
    for _ in 0..tries {
        let mut g = ArenaGraph::new(n);
        while g.m() < m {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }
        if is_connected(&g) {
            return g;
        }
    }
    panic!("gnm_connected({n}, {m}): no connected sample in {tries} tries");
}

/// Connected sparse workload: a uniform random spanning tree plus
/// `m - (n-1)` uniform random extra edges. Connected by construction at any
/// density — use this instead of [`gnm_connected`] when `m` is below the
/// `(n/2) ln n` connectivity threshold, where conditioned G(n, m) sampling
/// would reject (nearly) every draw. The distribution is *not* exactly
/// G(n, m) | connected (trees are slightly over-represented), which is
/// irrelevant for the convergence experiments but stated for honesty.
pub fn tree_plus_random_edges<R: Rng + ?Sized>(n: usize, m: u64, rng: &mut R) -> ArenaGraph {
    assert!(
        m >= n as u64 - 1,
        "m too small for a spanning tree on {n} nodes"
    );
    let max_m = (n as u64) * (n as u64 - 1) / 2;
    assert!(m <= max_m, "m exceeds complete graph");
    let mut g = random_tree(n, rng);
    while g.m() < m {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        if a != b {
            g.add_edge(NodeId(a), NodeId(b));
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity (resampled).
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> ArenaGraph {
    assert!((0.0..=1.0).contains(&p));
    let tries = 1000;
    for _ in 0..tries {
        let mut g = ArenaGraph::new(n);
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                if rng.random_bool(p) {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
        }
        if is_connected(&g) {
            return g;
        }
    }
    panic!("gnp_connected({n}, {p}): no connected sample in {tries} tries");
}

/// Connected Watts–Strogatz small world: ring lattice with `k` neighbors on
/// each side, each edge rewired with probability `beta` (resampled until
/// connected).
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> ArenaGraph {
    assert!(n > 2 * k, "watts_strogatz needs n > 2k");
    assert!(k >= 1);
    let tries = 1000;
    for _ in 0..tries {
        let mut g = ArenaGraph::new(n);
        for u in 0..n as u32 {
            for j in 1..=k as u32 {
                let v = (u + j) % n as u32;
                if rng.random_bool(beta) {
                    // Rewire: pick a random non-self target; duplicates are
                    // silently dropped by add_edge (standard WS practice).
                    let mut w = rng.random_range(0..n as u32);
                    while w == u {
                        w = rng.random_range(0..n as u32);
                    }
                    g.add_edge(NodeId(u), NodeId(w));
                } else {
                    g.add_edge(NodeId(u), NodeId(v));
                }
            }
        }
        if is_connected(&g) {
            return g;
        }
    }
    panic!("watts_strogatz({n}, {k}, {beta}): no connected sample");
}

/// Barabási–Albert preferential attachment: start from a clique on
/// `m0 = m + 1` nodes, each new node attaches to `m` distinct targets drawn
/// proportionally to degree. Always connected.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> ArenaGraph {
    assert!(m >= 1);
    assert!(n > m, "barabasi_albert needs n > m");
    let mut g = ArenaGraph::new(n);
    // Degree-proportional sampling via the repeated-endpoints trick.
    let mut endpoints: Vec<u32> = Vec::new();
    for a in 0..=m as u32 {
        for b in (a + 1)..=m as u32 {
            g.add_edge(NodeId(a), NodeId(b));
            endpoints.push(a);
            endpoints.push(b);
        }
    }
    for u in (m + 1)..n {
        let mut targets = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            g.add_edge(NodeId::new(u), NodeId(t));
            endpoints.push(u as u32);
            endpoints.push(t);
        }
    }
    g
}

/// Connected random `d`-regular-ish graph: a Hamiltonian cycle plus `d/2 - 1`
/// random perfect matchings over shuffled node orders (duplicate edges are
/// dropped, so degrees are *near* `d`). Connected by construction.
pub fn random_regular_ish<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> ArenaGraph {
    assert!(d >= 2 && d.is_multiple_of(2), "d must be even and >= 2");
    assert!(n >= 3);
    let mut g = cycle(n);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for _ in 0..(d / 2 - 1) {
        perm.shuffle(rng);
        for i in 0..n {
            g.add_edge(NodeId(perm[i]), NodeId(perm[(i + 1) % n]));
        }
    }
    g
}

/// Complete graph minus `k` uniformly random distinct edges, conditioned on
/// staying connected — the Theorem 9/13 lower-bound workload.
pub fn complete_minus_k<R: Rng + ?Sized>(n: usize, k: u64, rng: &mut R) -> ArenaGraph {
    let total = (n as u64) * (n as u64 - 1) / 2;
    assert!(k < total, "cannot remove {k} of {total} edges");
    let tries = 1000;
    for _ in 0..tries {
        let mut g = complete(n);
        let mut removed = 0;
        let mut guard = 0u64;
        while removed < k {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            if a != b && g.remove_edge(NodeId(a), NodeId(b)) {
                removed += 1;
            }
            guard += 1;
            assert!(guard < 100 * total.max(16), "edge removal stuck");
        }
        if is_connected(&g) {
            return g;
        }
    }
    panic!("complete_minus_k({n}, {k}): no connected sample");
}

// ---------------------------------------------------------------------------
// Figure 1(c): non-monotonicity pair
// ---------------------------------------------------------------------------

/// The Figure 1(c) pair `(G, H)`: a **4-edge graph whose expected push
/// convergence time exceeds that of its own 3-edge subgraph**.
///
/// `G = K_{1,4}` (star on 5 nodes, 4 edges) and `H = K_{1,3}` (the subgraph
/// obtained by deleting one leaf; 3 edges). The exact absorbing-chain solver
/// (`gossip-model::markov`) gives `E[T_push(G)] ≈ 11.158` versus
/// `E[T_push(H)] ≈ 6.281`: growing the star by one leaf adds three fresh
/// leaf-pairs that, at first, only the center can introduce. The same pair
/// works for pull (≈ 5.40 vs ≈ 3.05).
pub fn nonmonotone_pair() -> (ArenaGraph, ArenaGraph) {
    let g = star(5);
    let h = star(4);
    (g, h)
}

/// A stronger, same-vertex-set non-monotonicity witness for the push
/// process, found by the exhaustive 4-node search
/// (`gossip-model::markov::find_nonmonotone_pairs`): the *diamond*
/// `K_4 - e` (5 edges) converges slower in expectation (≈ 2.531 rounds) than
/// its spanning subgraph the 4-cycle (4 edges, ≈ 2.079 rounds). In the
/// diamond, the two degree-3 nodes waste proposals re-introducing existing
/// edges; in the cycle every node's unique proposal is a missing diagonal.
pub fn nonmonotone_pair_spanning() -> (ArenaGraph, ArenaGraph) {
    // Diamond: K4 minus edge (2,3); cycle: 0-2-1-3-0.
    let g = ArenaGraph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]);
    let h = ArenaGraph::from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]);
    (g, h)
}

// ---------------------------------------------------------------------------
// Directed families
// ---------------------------------------------------------------------------

/// Directed cycle `0 -> 1 -> ... -> n-1 -> 0`.
pub fn directed_cycle(n: usize) -> DirectedGraph {
    assert!(n >= 2);
    DirectedGraph::from_arcs(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)))
}

/// Directed path `0 -> 1 -> ... -> n-1`.
pub fn directed_path(n: usize) -> DirectedGraph {
    assert!(n >= 1);
    DirectedGraph::from_arcs(n, (0..n.saturating_sub(1) as u32).map(|i| (i, i + 1)))
}

/// Directed `G(n, p)` conditioned on strong connectivity (resampled).
pub fn directed_gnp_strong<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> DirectedGraph {
    let tries = 1000;
    for _ in 0..tries {
        let mut g = DirectedGraph::new(n);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a != b && rng.random_bool(p) {
                    g.add_arc(NodeId(a), NodeId(b));
                }
            }
        }
        if is_strongly_connected(&g) {
            return g;
        }
    }
    panic!("directed_gnp_strong({n}, {p}): no strongly connected sample");
}

/// The Theorem 14 lower-bound construction (weakly connected digraph on
/// which the two-hop walk needs `Ω(n² log n)` rounds).
///
/// 0-indexed transcription of the paper's edge set on `{0, …, n-1}`,
/// `n` divisible by 4:
///
/// * for every `i < n/4`: arcs `(3i, j)` and `(3i+1, j)` for all
///   `j ∈ [3n/4, n)`, plus the chain arcs `(3i, 3i+1)` and `(3i+1, 3i+2)`.
///
/// The only closure arcs missing are `(3i, 3i+2)`, each of which must be
/// found through one specific two-hop path whose first and second hops both
/// fight `Θ(n)`-sized out-neighborhoods.
pub fn theorem14_graph(n: usize) -> DirectedGraph {
    assert!(
        n.is_multiple_of(4) && n >= 8,
        "theorem14_graph needs n divisible by 4, n >= 8"
    );
    let mut g = DirectedGraph::new(n);
    let q = n / 4;
    for i in 0..q {
        let a = 3 * i;
        let b = 3 * i + 1;
        let c = 3 * i + 2;
        for j in (3 * q)..n {
            g.add_arc(NodeId::new(a), NodeId::new(j));
            g.add_arc(NodeId::new(b), NodeId::new(j));
        }
        g.add_arc(NodeId::new(a), NodeId::new(b));
        g.add_arc(NodeId::new(b), NodeId::new(c));
    }
    g
}

/// The Theorem 15 lower-bound construction (Figure 3): a strongly connected
/// digraph on which the two-hop walk needs expected `Ω(n²)` rounds.
///
/// 0-indexed transcription, `n` even, nodes `{0, …, n-1}`:
///
/// * complete digraph on the first half `{0, …, n/2 - 1}`;
/// * forward chain `(i, i+1)` for `i ∈ [n/2 - 1, n - 1)`;
/// * back arcs `(i, j)` for every `i ≥ n/2` and every `j < i`.
///
/// Progress along the chain requires cutting one specific arc out of
/// out-degrees that are at least `n/2`, and the analysis shows cuts advance
/// one node at a time in expectation.
pub fn theorem15_graph(n: usize) -> DirectedGraph {
    assert!(
        n.is_multiple_of(2) && n >= 4,
        "theorem15_graph needs even n >= 4"
    );
    let half = n / 2;
    let mut g = DirectedGraph::new(n);
    for a in 0..half {
        for b in 0..half {
            if a != b {
                g.add_arc(NodeId::new(a), NodeId::new(b));
            }
        }
    }
    for i in (half - 1)..(n - 1) {
        g.add_arc(NodeId::new(i), NodeId::new(i + 1));
    }
    for i in half..n {
        for j in 0..i {
            g.add_arc(NodeId::new(i), NodeId::new(j));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::Closure;
    use crate::components::{is_weakly_connected, strongly_connected_components};
    use crate::traversal::diameter;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xD15C0)
    }

    #[test]
    fn deterministic_families_shape() {
        assert_eq!(path(10).m(), 9);
        assert_eq!(cycle(10).m(), 10);
        assert_eq!(star(10).m(), 9);
        assert_eq!(double_star(10).m(), 9);
        assert_eq!(complete(10).m(), 45);
        assert!(complete(10).is_complete());
        assert_eq!(binary_tree(15).m(), 14);
        assert_eq!(grid(3, 4).m(), (2 * 4) + (3 * 3));
        assert_eq!(hypercube(4).m(), 32);
        assert_eq!(barbell(4).n(), 8);
        assert_eq!(barbell(4).m(), 13);
        assert_eq!(lollipop(4, 3).m(), 9);
    }

    #[test]
    fn deterministic_families_connected() {
        for g in [
            path(17),
            cycle(17),
            star(17),
            double_star(17),
            binary_tree(17),
            grid(4, 5),
            hypercube(4),
            barbell(8),
            lollipop(8, 9),
        ] {
            assert!(is_connected(&g));
            g.validate().unwrap();
        }
    }

    #[test]
    fn random_tree_is_tree() {
        let mut r = rng();
        for n in [1usize, 2, 3, 10, 64, 257] {
            let g = random_tree(n, &mut r);
            assert_eq!(g.m(), n as u64 - u64::from(n > 0).min(n as u64));
            assert_eq!(g.m(), (n - 1) as u64);
            assert!(is_connected(&g), "n={n}");
            g.validate().unwrap();
        }
    }

    #[test]
    fn gnm_has_exact_edges() {
        let mut r = rng();
        let g = gnm_connected(50, 200, &mut r);
        assert_eq!(g.m(), 200);
        assert!(is_connected(&g));
    }

    #[test]
    fn gnp_connected_dense() {
        let mut r = rng();
        let g = gnp_connected(40, 0.3, &mut r);
        assert!(is_connected(&g));
        assert!(g.m() > 100); // E[m] = 0.3 * 780 = 234; wildly below that is a bug
    }

    #[test]
    fn watts_strogatz_shape() {
        let mut r = rng();
        let g = watts_strogatz(60, 3, 0.1, &mut r);
        assert!(is_connected(&g));
        // Ring lattice has 3n edges; rewiring only moves them (dedup loses a few).
        assert!(g.m() <= 180 && g.m() > 150, "m = {}", g.m());
    }

    #[test]
    fn barabasi_albert_shape() {
        let mut r = rng();
        let g = barabasi_albert(100, 3, &mut r);
        assert!(is_connected(&g));
        // Initial K4 (6 edges) + 96 nodes * 3 edges.
        assert_eq!(g.m(), 6 + 96 * 3);
        assert!(
            g.max_degree() > 6,
            "preferential attachment should create hubs"
        );
    }

    #[test]
    fn random_regular_ish_degrees() {
        let mut r = rng();
        let g = random_regular_ish(101, 6, &mut r);
        assert!(is_connected(&g));
        assert!(g.min_degree() >= 2);
        assert!(g.max_degree() <= 6);
        assert!(g.mean_degree() > 5.0, "mean degree {}", g.mean_degree());
    }

    #[test]
    fn complete_minus_k_counts() {
        let mut r = rng();
        let g = complete_minus_k(20, 15, &mut r);
        assert_eq!(g.m(), 190 - 15);
        assert!(is_connected(&g));
    }

    #[test]
    fn nonmonotone_pair_is_subgraph_pair() {
        // Figure 1(c): the 4-edge G contains the 3-edge H as a subgraph
        // (H lives on the first 4 nodes of G).
        let (g, h) = nonmonotone_pair();
        assert_eq!(g.n(), 5);
        assert_eq!(h.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(h.m(), 3);
        assert!(is_connected(&g) && is_connected(&h));
        for e in h.edges() {
            assert!(g.has_edge(e.a, e.b));
        }
    }

    #[test]
    fn nonmonotone_spanning_pair_is_subgraph_pair() {
        let (g, h) = nonmonotone_pair_spanning();
        assert_eq!(g.n(), 4);
        assert_eq!(h.n(), 4);
        assert_eq!(g.m(), 5);
        assert_eq!(h.m(), 4);
        assert!(is_connected(&g) && is_connected(&h));
        for e in h.edges() {
            assert!(g.has_edge(e.a, e.b));
        }
    }

    #[test]
    fn directed_cycle_strong() {
        let g = directed_cycle(9);
        assert!(is_strongly_connected(&g));
        assert_eq!(Closure::of(&g).pair_count(), 72);
    }

    #[test]
    fn theorem14_structure() {
        let n = 16;
        let g = theorem14_graph(n);
        g.validate().unwrap();
        assert!(is_weakly_connected(&g));
        let (_, scc) = strongly_connected_components(&g);
        assert_eq!(scc, n); // it's a DAG: all SCCs singletons
                            // Closure adds exactly the (3i, 3i+2) arcs: q of them.
        let c = Closure::of(&g);
        let q = n / 4;
        assert_eq!(c.pair_count(), g.arc_count() + q as u64);
        for i in 0..q {
            assert!(c.reaches(NodeId::new(3 * i), NodeId::new(3 * i + 2)));
            assert!(!g.has_arc(NodeId::new(3 * i), NodeId::new(3 * i + 2)));
        }
    }

    #[test]
    fn theorem15_structure() {
        let n = 12;
        let g = theorem15_graph(n);
        g.validate().unwrap();
        assert!(is_strongly_connected(&g));
        // Strongly connected => closure is all ordered pairs.
        assert_eq!(Closure::of(&g).pair_count(), (n * (n - 1)) as u64);
        // Out-degree of every node is at least n/2 - 1 (paper: >= n/2 for the
        // 1-indexed variant; the chain endpoints differ by one).
        for u in g.nodes() {
            assert!(
                g.out_degree(u) >= n / 2 - 1,
                "out_degree({u}) = {}",
                g.out_degree(u)
            );
        }
    }

    #[test]
    fn diameters_sane() {
        assert_eq!(diameter(&path(10)), Some(9));
        assert_eq!(diameter(&star(10)), Some(2));
        assert_eq!(diameter(&hypercube(5)), Some(5));
    }
}
