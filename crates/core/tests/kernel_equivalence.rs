//! Adapter equivalence: the kernelized rules must be **bit-identical** to
//! the pre-kernel hand-written draw paths.
//!
//! The legacy rules are re-implemented here verbatim (same draws, same
//! order, same guards, straight against the graph rows) and compared to
//! the kernel-backed `Push`/`Pull`/`HybridPushPull` on the same per-node
//! RNG streams — across random seeds, sizes spanning `n = 1` to
//! `n = 1024`, and the saturation edges `n = 0` / `n = 1` where rules
//! must propose nothing and consume **zero** randomness.
//!
//! The engines call [`ProposalRule::propose_range`], not `propose`; the
//! second half pins every rule's range form — the staged two-hop walk of
//! `Pull` and `DirectedPull` among them — to the per-node loop it
//! replaces, proposal for proposal, on every backend.

use gossip_core::rng::stream_rng;
use gossip_core::{
    with_rule, DirectedPull, GossipGraph, HybridPushPull, ProposalRule, ProposalSet, Pull, Push,
    RuleId, TaggedProposal,
};
use gossip_graph::{
    generators, ArenaGraph, DirectedGraph, NodeId, ShardedArenaGraph, UniformNeighbors,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// The pre-kernel push: draw `v, w` i.i.d. from the own row, propose
/// `(v, w)` unless they coincide.
fn legacy_push(g: &ArenaGraph, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
    let row = g.neighbor_row(u);
    if row.is_empty() {
        return ProposalSet::empty();
    }
    let v = row[rng.random_range(0..row.len())];
    let w = row[rng.random_range(0..row.len())];
    if v != w {
        ProposalSet::one(v, w)
    } else {
        ProposalSet::empty()
    }
}

/// The pre-kernel pull: two-hop walk `u -> v -> w`, propose `(u, w)`
/// unless the walk returns home.
fn legacy_pull(g: &ArenaGraph, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
    let row = g.neighbor_row(u);
    if row.is_empty() {
        return ProposalSet::empty();
    }
    let v = row[rng.random_range(0..row.len())];
    let vrow = g.neighbor_row(v);
    if vrow.is_empty() {
        return ProposalSet::empty();
    }
    let w = vrow[rng.random_range(0..vrow.len())];
    if w != u {
        ProposalSet::one(u, w)
    } else {
        ProposalSet::empty()
    }
}

/// The pre-kernel hybrid: push draws first, then the pull walk, on the
/// same RNG.
fn legacy_hybrid(g: &ArenaGraph, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
    let row = g.neighbor_row(u);
    if row.is_empty() {
        return ProposalSet::empty();
    }
    let mut out = ProposalSet::empty();
    let v = row[rng.random_range(0..row.len())];
    let w = row[rng.random_range(0..row.len())];
    if v != w {
        out.push((v, w));
    }
    let v2 = row[rng.random_range(0..row.len())];
    let vrow = g.neighbor_row(v2);
    if !vrow.is_empty() {
        let w2 = vrow[rng.random_range(0..vrow.len())];
        if w2 != u {
            out.push((u, w2));
        }
    }
    out
}

fn random_connected(seed: u64, n: usize, extra: usize) -> ArenaGraph {
    let mut rng = stream_rng(seed, 0, 0);
    let mut g = generators::random_tree(n, &mut rng);
    for _ in 0..extra {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        if a != b {
            g.add_edge(NodeId(a), NodeId(b));
        }
    }
    g
}

/// Every node, several rounds: the kernelized rule and the legacy path
/// must emit identical proposals from identically-seeded streams.
fn assert_equivalent<R, L>(
    g: &ArenaGraph,
    rule: R,
    legacy: L,
    seed: u64,
) -> Result<(), TestCaseError>
where
    R: ProposalRule<ArenaGraph>,
    L: Fn(&ArenaGraph, NodeId, &mut SmallRng) -> ProposalSet,
{
    for round in 0..4u64 {
        for u in 0..g.n() {
            let u = NodeId::new(u);
            let mut r1 = stream_rng(seed, round, u.0 as u64);
            let mut r2 = r1.clone();
            let kernelized = rule.propose(g, u, &mut r1);
            let reference = legacy(g, u, &mut r2);
            prop_assert_eq!(
                kernelized.as_slice(),
                reference.as_slice(),
                "rule {} diverged at node {} round {round}",
                rule.name(),
                u.0
            );
            // Same *number* of draws too: the streams must stay aligned.
            prop_assert_eq!(r1.random::<u64>(), r2.random::<u64>());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kernel_rules_match_legacy_draw_paths(seed in any::<u64>()) {
        for n in [1usize, 2, 16, 1024] {
            let g = random_connected(seed, n, n / 3);
            assert_equivalent(&g, Push, legacy_push, seed)?;
            assert_equivalent(&g, Pull, legacy_pull, seed)?;
            assert_equivalent(&g, HybridPushPull, legacy_hybrid, seed)?;
        }
    }
}

#[test]
fn isolated_nodes_propose_nothing_and_draw_nothing() {
    // Saturation edges: the empty graph and graphs of isolated nodes.
    for n in [0usize, 1, 3] {
        let g = ArenaGraph::new(n);
        for u in 0..n {
            let u = NodeId::new(u);
            let mut rng = stream_rng(7, 0, u.0 as u64);
            let untouched = rng.clone();
            assert!(Push.propose(&g, u, &mut rng).as_slice().is_empty());
            assert!(Pull.propose(&g, u, &mut rng).as_slice().is_empty());
            assert!(HybridPushPull
                .propose(&g, u, &mut rng)
                .as_slice()
                .is_empty());
            // An empty row must consume zero randomness — the stream
            // alignment the engines' determinism contract depends on.
            assert_eq!(
                rng.clone().random::<u64>(),
                untouched.clone().random::<u64>()
            );
        }
    }
}

#[test]
fn single_edge_graph_saturates_to_no_op() {
    // n = 2: both rows are {the other node}; push must always collide
    // (v == w) and pull must always walk home — silent forever.
    let g = ArenaGraph::from_edges(2, [(0, 1)]);
    for seed in 0..32u64 {
        for u in [NodeId(0), NodeId(1)] {
            let mut rng = stream_rng(seed, 0, u.0 as u64);
            assert!(Push.propose(&g, u, &mut rng).as_slice().is_empty());
            let mut rng = stream_rng(seed, 1, u.0 as u64);
            assert!(Pull.propose(&g, u, &mut rng).as_slice().is_empty());
            let mut rng = stream_rng(seed, 2, u.0 as u64);
            assert!(HybridPushPull
                .propose(&g, u, &mut rng)
                .as_slice()
                .is_empty());
        }
    }
}

/// `propose_range` over `lo..hi` against the loop it stands for: every
/// node's `propose` on its own `(seed, round, node)` stream, in node order.
fn assert_range_is_the_node_loop<G: GossipGraph, R: ProposalRule<G>>(g: &G, rule: &R, seed: u64) {
    let n = g.node_count();
    // Whole graph, mid-block starts and ends, one node, nothing.
    let ranges = [
        0..n,
        1..n,
        n / 3..n,
        37.min(n)..n.saturating_sub(5),
        0..n.min(1),
        n..n,
    ];
    for (round, range) in (0u64..).zip(ranges) {
        let range = range.start..range.end.max(range.start);
        let mut want: Vec<TaggedProposal> = Vec::new();
        for u in range.clone() {
            let node = NodeId::new(u);
            let mut rng = stream_rng(seed, round, u as u64);
            for &(a, b) in rule.propose(g, node, &mut rng).as_slice() {
                want.push((node, a, b));
            }
        }
        // The range form appends: what the buffer held must survive.
        let kept = (NodeId(9), NodeId(9), NodeId(9));
        let mut got = vec![kept];
        rule.propose_range(g, seed, round, range.clone(), &mut got);
        assert_eq!(got[0], kept);
        assert_eq!(
            got[1..],
            want[..],
            "rule {} diverged on {range:?} of {n} nodes, round {round}",
            rule.name()
        );
    }
}

#[test]
fn propose_range_equals_the_per_node_loop_on_every_backend() {
    for n in [0usize, 1, 2, 63, 64, 65, 1025] {
        for seed in [3u64, 20260807] {
            let mut arena = if n == 0 {
                ArenaGraph::new(0)
            } else {
                random_connected(seed, n, n / 2)
            };
            // Every seventh node leaves: its row is empty, and nobody's
            // walk can reach it.
            for u in (0..n).step_by(7) {
                arena.remove_member(NodeId::new(u));
            }
            let sharded = ShardedArenaGraph::from_arena(&arena, 2);
            for id in RuleId::ALL {
                with_rule!(id, |rule| {
                    assert_range_is_the_node_loop(&arena, &rule, seed);
                    assert_range_is_the_node_loop(&sharded, &rule, seed);
                });
            }
            // Directed: a third of the nodes are sinks, so first hops land
            // on empty peer rows.
            let mut rng = stream_rng(seed, 1, 0);
            let arcs: Vec<(u32, u32)> = (0..3 * n)
                .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
                .filter(|&(a, b)| a != b && a % 3 != 0)
                .collect();
            let directed = DirectedGraph::from_arcs(n, arcs);
            assert_range_is_the_node_loop(&directed, &DirectedPull, seed);
        }
    }
}
