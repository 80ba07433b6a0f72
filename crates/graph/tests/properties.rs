//! Property tests for the graph substrate: structural invariants checked on
//! random inputs, including Lemma 1 of the paper itself.

use gossip_graph::closure::Closure;
use gossip_graph::components::{
    connected_components, is_connected, strongly_connected_components, UnionFind,
};
use gossip_graph::traversal::{bfs_distances, rings_up_to, UNREACHABLE};
use gossip_graph::{generators, io, ArenaGraph, DirectedGraph, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn random_graph(seed: u64, n: usize, extra: usize) -> ArenaGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
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

fn random_digraph(seed: u64, n: usize, arcs: usize) -> DirectedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = DirectedGraph::new(n);
    for _ in 0..arcs {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        if a != b {
            g.add_arc(NodeId(a), NodeId(b));
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// **Lemma 1 of the paper**: for any node u of a connected graph,
    /// |N¹(u) ∪ N²(u) ∪ N³(u) ∪ N⁴(u)| >= min(2δ, n − 1).
    #[test]
    fn paper_lemma_1_holds(seed in any::<u64>(), n in 3usize..40, extra in 0usize..40) {
        let g = random_graph(seed, n, extra);
        prop_assume!(is_connected(&g));
        let delta = g.min_degree();
        for u in g.nodes() {
            let rings = rings_up_to(&g, u, 4);
            let within4: usize = rings[1..].iter().map(Vec::len).sum();
            prop_assert!(
                within4 >= (2 * delta).min(n - 1),
                "Lemma 1 violated at {u:?}: |N1..4| = {within4}, 2δ = {}, n-1 = {}",
                2 * delta,
                n - 1
            );
        }
    }

    /// Closure reachability agrees with per-node BFS on arbitrary digraphs.
    #[test]
    fn closure_matches_bfs(seed in any::<u64>(), n in 2usize..24, arcs in 0usize..60) {
        let g = random_digraph(seed, n, arcs);
        let c = Closure::of(&g);
        let mut pairs = 0u64;
        for u in g.nodes() {
            let d = bfs_distances(&g, u);
            for v in g.nodes() {
                let reachable = u != v && d[v.index()] != UNREACHABLE;
                prop_assert_eq!(c.reaches(u, v), reachable);
                pairs += reachable as u64;
            }
        }
        prop_assert_eq!(c.pair_count(), pairs);
    }

    /// SCC labels: same label iff mutually reachable.
    #[test]
    fn scc_labels_mean_mutual_reachability(seed in any::<u64>(), n in 2usize..20, arcs in 0usize..50) {
        let g = random_digraph(seed, n, arcs);
        let (labels, _) = strongly_connected_components(&g);
        let c = Closure::of(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v { continue; }
                let mutual = c.reaches(u, v) && c.reaches(v, u);
                prop_assert_eq!(
                    labels[u.index()] == labels[v.index()],
                    mutual,
                    "labels {:?}/{:?} vs mutual {}", u, v, mutual
                );
            }
        }
    }

    /// Edge-list text roundtrips losslessly.
    #[test]
    fn io_roundtrip(seed in any::<u64>(), n in 1usize..30, extra in 0usize..40) {
        let g = random_graph(seed, n.max(1), extra);
        let text = io::write_undirected(&g);
        let back = io::parse_undirected(&text).unwrap();
        prop_assert!(g.same_edges(&back));
    }

    /// Union-find connectivity matches BFS connectivity.
    #[test]
    fn unionfind_matches_bfs(seed in any::<u64>(), n in 2usize..30, edges in 0usize..40) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = ArenaGraph::new(n);
        let mut uf = UnionFind::new(n);
        for _ in 0..edges {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
                uf.union(a as usize, b as usize);
            }
        }
        let (labels, _) = connected_components(&g);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(
                    uf.connected(u, v),
                    labels[u] == labels[v]
                );
            }
        }
    }

    /// Generators' structural promises on random parameters.
    #[test]
    fn generator_contracts(n in 4usize..50, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Trees have n-1 edges and are connected.
        let t = generators::random_tree(n, &mut rng);
        prop_assert_eq!(t.m(), (n - 1) as u64);
        prop_assert!(is_connected(&t));
        // tree_plus_random_edges hits the requested m exactly and stays connected.
        let max_m = (n as u64) * (n as u64 - 1) / 2;
        let m = (2 * n as u64).min(max_m);
        let s = generators::tree_plus_random_edges(n, m, &mut rng);
        prop_assert_eq!(s.m(), m);
        prop_assert!(is_connected(&s));
        // BA graphs are connected with hub formation.
        let ba = generators::barabasi_albert(n, 2, &mut rng);
        prop_assert!(is_connected(&ba));
        prop_assert!(ba.min_degree() >= 2);
    }

    /// Theorem-graph families keep their defining invariants at any size.
    #[test]
    fn theorem_graph_contracts(k in 2usize..12) {
        let n14 = 4 * k;
        let g14 = generators::theorem14_graph(n14);
        // DAG: every SCC singleton; closure adds exactly n/4 arcs.
        let (_, scc) = strongly_connected_components(&g14);
        prop_assert_eq!(scc, n14);
        prop_assert_eq!(Closure::of(&g14).pair_count(), g14.arc_count() + (n14 / 4) as u64);

        let n15 = 2 * k;
        let g15 = generators::theorem15_graph(n15);
        prop_assert!(gossip_graph::components::is_strongly_connected(&g15));
        prop_assert_eq!(
            Closure::of(&g15).pair_count(),
            (n15 * (n15 - 1)) as u64
        );
    }
}

// ---------------------------------------------------------------------------
// Generator edge-set pins
// ---------------------------------------------------------------------------

/// FNV-1a over `n` and the sorted edge (or arc) list: a function of the
/// edge set alone, never of the order rows were built or stored in.
fn fingerprint(h: &mut u64, n: usize, mut edges: Vec<(u32, u32)>) {
    edges.sort_unstable();
    let words = std::iter::once(n as u32).chain(edges.into_iter().flat_map(|(a, b)| [a, b]));
    for byte in words.flat_map(u32::to_le_bytes) {
        *h = (*h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
}

/// `(n, edges)` of an undirected graph.
macro_rules! edges {
    ($g:expr) => {{
        let g = $g;
        (g.n(), g.edges().map(|e| (e.a.0, e.b.0)).collect::<Vec<_>>())
    }};
}

/// `(n, arcs)` of a digraph.
macro_rules! arcs {
    ($g:expr) => {{
        let g = $g;
        (
            g.n(),
            g.arcs().map(|a| (a.from.0, a.to.0)).collect::<Vec<_>>(),
        )
    }};
}

type Build = fn(usize, &mut SmallRng) -> (usize, Vec<(u32, u32)>);

/// Every generator at two sizes and two seeds (deterministic families
/// ignore the rng), with the fingerprint of all four of its edge sets.
#[rustfmt::skip]
const GENERATOR_PINS: [(&str, [usize; 2], Build, u64); 25] = [
    ("path", [10, 97], |n, _| edges!(generators::path(n)), 0xf285_b405_a4ae_6bc5),
    ("cycle", [10, 97], |n, _| edges!(generators::cycle(n)), 0xa5b3_7d9e_2dc4_2655),
    ("star", [10, 97], |n, _| edges!(generators::star(n)), 0x05c5_0c2b_9c9b_5845),
    ("double_star", [10, 97], |n, _| edges!(generators::double_star(n)), 0x725a_cbef_b64e_16b5),
    ("complete", [10, 40], |n, _| edges!(generators::complete(n)), 0xcc76_81ca_a567_8995),
    ("binary_tree", [10, 97], |n, _| edges!(generators::binary_tree(n)), 0x20a0_de85_9aa6_dc85),
    ("grid", [3, 7], |n, _| edges!(generators::grid(n, n + 2)), 0x93f1_4603_745e_b4c5),
    ("hypercube", [3, 6], |d, _| edges!(generators::hypercube(d as u32)), 0x30ea_954c_1966_0325),
    ("barbell", [3, 20], |k, _| edges!(generators::barbell(k)), 0x14fc_eb0c_99b4_dce5),
    ("lollipop", [3, 12], |k, _| edges!(generators::lollipop(k, 2 * k)), 0x98f0_6a5e_04c9_0a15),
    ("random_tree", [10, 200], |n, r| edges!(generators::random_tree(n, r)), 0xf5f1_568d_6668_e7a4),
    ("gnm_connected", [20, 120], |n, r| edges!(generators::gnm_connected(n, 3 * n as u64, r)), 0xca07_8798_00df_4e7e),
    ("tree_plus_random_edges", [20, 300], |n, r| edges!(generators::tree_plus_random_edges(n, 3 * n as u64, r)), 0x11c7_00c7_e877_84f4),
    ("gnp_connected", [20, 80], |n, r| edges!(generators::gnp_connected(n, 8.0 / n as f64, r)), 0xc5c8_ab7d_5156_2769),
    ("watts_strogatz", [20, 150], |n, r| edges!(generators::watts_strogatz(n, 3, 0.2, r)), 0x0110_6f24_b788_e77a),
    ("barabasi_albert", [20, 300], |n, r| edges!(generators::barabasi_albert(n, 3, r)), 0xbf92_c3da_93eb_3e74),
    ("random_regular_ish", [21, 301], |n, r| edges!(generators::random_regular_ish(n, 6, r)), 0x9def_1c56_02e9_fcd7),
    ("complete_minus_k", [10, 40], |n, r| edges!(generators::complete_minus_k(n, 2 * n as u64, r)), 0x6b8a_01c7_8e06_e12e),
    ("nonmonotone_pair", [0, 1], |i, _| { let (g, h) = generators::nonmonotone_pair(); edges!(if i == 0 { g } else { h }) }, 0x4a14_1bfc_c477_add5),
    ("nonmonotone_pair_spanning", [0, 1], |i, _| { let (g, h) = generators::nonmonotone_pair_spanning(); edges!(if i == 0 { g } else { h }) }, 0x8801_d098_e1ad_e635),
    ("directed_cycle", [10, 97], |n, _| arcs!(generators::directed_cycle(n)), 0x9fc2_163b_02b3_8a75),
    ("directed_path", [10, 97], |n, _| arcs!(generators::directed_path(n)), 0xf285_b405_a4ae_6bc5),
    ("directed_gnp_strong", [12, 60], |n, r| arcs!(generators::directed_gnp_strong(n, 9.0 / n as f64, r)), 0x00cf_5d5f_b15c_bc03),
    ("theorem14_graph", [8, 64], |n, _| arcs!(generators::theorem14_graph(n)), 0xbfa2_de8d_8954_5aa5),
    ("theorem15_graph", [4, 60], |n, _| arcs!(generators::theorem15_graph(n)), 0x7203_4675_d0b9_6b45),
];

/// `G_0` is a function of the generator and its rng alone: the edge sets
/// recorded here were taken while rows were still insertion-ordered, so
/// whatever layout a row uses now, no start graph moved.
#[test]
fn generator_edge_sets_are_pinned() {
    let mut moved = Vec::new();
    for (name, sizes, build, want) in GENERATOR_PINS {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for size in sizes {
            for seed in [7, 8] {
                let (n, edges) = build(size, &mut SmallRng::seed_from_u64(seed));
                fingerprint(&mut h, n, edges);
            }
        }
        if h != want {
            moved.push(format!("{name}: {h:#018x}"));
        }
    }
    assert!(moved.is_empty(), "edge sets moved:\n{}", moved.join("\n"));
}

// ---------------------------------------------------------------------------
// Arena store vs a `Vec<BTreeSet<u32>>` model (seeded, PROPTEST_SEED
// replayable)
// ---------------------------------------------------------------------------

/// The reference undirected graph: one ordered set per node.
struct Model(Vec<BTreeSet<u32>>);

impl Model {
    fn new(n: usize) -> Self {
        Model(vec![BTreeSet::new(); n])
    }

    /// Inserts edge `(a, b)`; whether it was new. Self-loops are no-ops.
    fn add_edge(&mut self, a: u32, b: u32) -> bool {
        a != b && self.0[a as usize].insert(b) && self.0[b as usize].insert(a)
    }

    fn m(&self) -> u64 {
        self.0.iter().map(|row| row.len() as u64).sum::<u64>() / 2
    }

    fn row(&self, u: NodeId) -> Vec<NodeId> {
        self.0[u.index()].iter().copied().map(NodeId).collect()
    }
}

proptest! {
    /// Random proposal sequences — arbitrary (a, b) pairs including
    /// self-loops and duplicates — applied edge-at-a-time to the arena and
    /// to the model produce identical insert verdicts and identical rows.
    #[test]
    fn arena_and_adjset_agree_under_random_proposals(
        seed in any::<u64>(),
        n in 2usize..80,
        rounds in 1usize..20,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arena = gossip_graph::ArenaGraph::new(n);
        let mut model = Model::new(n);
        for _ in 0..rounds {
            for _ in 0..n {
                let a = rng.random_range(0..n as u32);
                let b = rng.random_range(0..n as u32);
                prop_assert_eq!(
                    arena.add_edge(NodeId(a), NodeId(b)),
                    model.add_edge(a, b),
                    "verdicts diverge on ({}, {})", a, b
                );
            }
        }
        prop_assert_eq!(arena.m(), model.m());
        for u in arena.nodes() {
            prop_assert_eq!(arena.neighbors(u), &model.row(u)[..], "row {:?}", u);
        }
        arena.validate().unwrap();
    }

    /// Whole-round batch application on the arena equals edge-at-a-time
    /// application on the model: same added count per round, same final
    /// rows — the row-ordered merge changes the mechanics, never the
    /// result.
    #[test]
    fn arena_batch_rounds_match_adjset_sequential(
        seed in any::<u64>(),
        n in 2usize..60,
        rounds in 1usize..16,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C4);
        let mut arena = gossip_graph::ArenaGraph::new(n);
        let mut model = Model::new(n);
        for _ in 0..rounds {
            let proposals: Vec<(NodeId, NodeId)> = (0..2 * n)
                .map(|_| (
                    NodeId(rng.random_range(0..n as u32)),
                    NodeId(rng.random_range(0..n as u32)),
                ))
                .collect();
            let seq_added: u64 =
                proposals.iter().map(|&(a, b)| model.add_edge(a.0, b.0) as u64).sum();
            let (_, batch_added) =
                arena.apply_batch(proposals.iter().map(|&(a, b)| ((), a, b)), |_, _, _| {});
            prop_assert_eq!(batch_added, seq_added);
        }
        prop_assert_eq!(arena.m(), model.m());
        for u in arena.nodes() {
            prop_assert_eq!(arena.neighbors(u), &model.row(u)[..], "row {:?}", u);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The arena's batch entry point (what `GossipGraph::apply_proposals`
    /// calls) is edge-at-a-time `add_edge` in everything observable: rows,
    /// `m`, `added`, and the exact `on_new` sequence (first proposer of an
    /// edge, in proposal order) — with duplicates in both orientations,
    /// self-loops, members leaving between rounds (tombstoned rows), and
    /// enough growth on few rows to force relocations and compactions.
    /// The same batches routed as half-edges through
    /// `ShardSeg::apply_half_edges` leave the same rows and the same
    /// per-segment canonical counts at any shard count.
    #[test]
    fn arena_batch_equals_edge_at_a_time(
        seed in any::<u64>(),
        small in 2usize..80,
        scale in 0usize..3,
        rounds in 2usize..10,
    ) {
        use gossip_graph::{ArenaGraph, HalfEdge, MergeScratch, ShardedArenaGraph};

        // One chunk, two chunks, and the nine it takes to fill eight shards.
        let n = small + [0, 2_000, 8_200][scale];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x3E26E);
        let mut batch = ArenaGraph::new(n);
        let mut oracle = ArenaGraph::new(n);
        let mut sharded: Vec<ShardedArenaGraph> =
            [1, 2, 8].iter().map(|&s| ShardedArenaGraph::new(n, s)).collect();
        let mut scratch = MergeScratch::default();
        // Half the proposals fall on a few hot rows, so those grow by
        // several entries per round.
        let hot = (n / 16).max(2) as u32;
        for round in 0..rounds {
            if round % 3 == 2 {
                let leaver = NodeId(rng.random_range(0..hot));
                let dropped = oracle.remove_member(leaver);
                prop_assert_eq!(batch.remove_member(leaver), dropped);
                for g in sharded.iter_mut() {
                    prop_assert_eq!(g.remove_member(leaver), dropped);
                }
            }
            let mut proposals: Vec<(NodeId, NodeId)> = (0..2 * n)
                .map(|i| {
                    let a = if i % 2 == 0 { rng.random_range(0..hot) } else { rng.random_range(0..n as u32) };
                    (NodeId(a), NodeId(rng.random_range(0..n as u32)))
                })
                .collect();
            // Every fifth proposal again, reversed, later in the round.
            let echoes: Vec<(NodeId, NodeId)> =
                proposals.iter().step_by(5).map(|&(a, b)| (b, a)).collect();
            proposals.extend(echoes);

            let mut want = Vec::new();
            for (slot, &(a, b)) in proposals.iter().enumerate() {
                if oracle.add_edge(a, b) {
                    want.push((slot, a, b));
                }
            }
            let mut got = Vec::new();
            let tagged = proposals.iter().enumerate().map(|(slot, &(a, b))| (slot, a, b));
            let (proposed, added) = batch.apply_batch(tagged, |slot, a, b| got.push((slot, a, b)));
            prop_assert_eq!(proposed, proposals.len() as u64);
            prop_assert_eq!(added, want.len() as u64);
            prop_assert_eq!(&got, &want, "on_new sequence, round {}", round);
            prop_assert_eq!(batch.m(), oracle.m());
            batch.validate().unwrap();

            for g in sharded.iter_mut() {
                let plan = *g.plan();
                let mut mail: Vec<Vec<HalfEdge>> = vec![Vec::new(); plan.shards()];
                for (slot, &(a, b)) in proposals.iter().enumerate() {
                    if a != b {
                        mail[plan.owner(a)].push((slot as u32, a, b));
                        mail[plan.owner(b)].push((slot as u32, b, a));
                    }
                }
                let mut shard_added = 0;
                for (seg, entries) in g.segments_mut().into_iter().zip(&mail) {
                    shard_added += seg.apply_half_edges(&[entries.as_slice()], &mut scratch);
                }
                prop_assert_eq!(shard_added, added, "S = {}", plan.shards());
            }
        }
        for u in oracle.nodes() {
            prop_assert_eq!(batch.neighbors(u), oracle.neighbors(u), "row {:?}", u);
        }
        for g in &sharded {
            g.validate().unwrap();
            for u in oracle.nodes() {
                prop_assert_eq!(g.neighbors(u), oracle.neighbors(u), "S = {} row {:?}", g.shard_count(), u);
            }
            for s in 0..g.shard_count() {
                let canonical: usize = g.plan().span(s)
                    .map(NodeId::new)
                    .map(|u| oracle.neighbors(u).iter().filter(|&&v| u < v).count())
                    .sum();
                prop_assert_eq!(g.segment(s).m_canonical(), canonical as u64, "S = {} segment {}", g.shard_count(), s);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The worker-bootstrap stream loses nothing: every segment of a
    /// churned sharded graph, chunked at any budget and reassembled,
    /// rebuilds a graph whose segments stream back the identical chunks —
    /// rows, `(len, cap)`, `base`, `m_canonical` — on a dense slab, and
    /// the same later rounds and churn keep the two graphs equal.
    #[test]
    fn segment_chunks_rebuild_a_segment_that_streams_identically(
        seed in any::<u64>(),
        small in 2usize..80,
        scale in 0usize..3,
        shards_at in 0usize..4,
        leavers in 0usize..24,
    ) {
        use gossip_graph::{HalfEdge, MergeScratch, SegSnapshotAssembler, SegSnapshotChunk, ShardedArenaGraph};

        let n = small + [0, 2_000, 8_200][scale];
        let shards = [1, 2, 3, 8][shards_at];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB007);
        let mut g = ShardedArenaGraph::new(n, shards);
        for _ in 0..2 * n {
            g.add_edge(NodeId(rng.random_range(0..n as u32)), NodeId(rng.random_range(0..n as u32)));
        }
        for _ in 0..leavers {
            g.remove_member(NodeId(rng.random_range(0..n as u32)));
        }
        let stream = |g: &ShardedArenaGraph, budget: usize| -> Vec<Vec<SegSnapshotChunk>> {
            (0..shards).map(|s| g.segment(s).chunks(budget).collect()).collect()
        };
        for budget in [1, 7, 100, usize::MAX] {
            let chunks = stream(&g, budget);
            let segs = chunks.iter().map(|seg| {
                let mut asm = SegSnapshotAssembler::new(n);
                for c in seg {
                    asm.accept(c).unwrap();
                }
                asm.finish()
            });
            let mut r = ShardedArenaGraph::from_segments(n, shards, segs.collect()).unwrap();
            prop_assert_eq!(&stream(&r, budget), &chunks, "budget {}", budget);
            // Dense: the slab holds exactly the reserved slots, no dead space,
            // and a segment with a row past n/32 entries holds one 4-byte
            // sidecar index per row and an n-bit sidecar per such row.
            let word = std::mem::size_of::<usize>();
            let sidecars = |seg: &Vec<SegSnapshotChunk>| {
                let lens = || seg.iter().flat_map(|c| &c.len_cap).map(|&(len, _)| len as usize);
                match lens().filter(|&len| len > n / 32).count() {
                    0 => 0,
                    rows => 4 * lens().count() + 8 * n.div_ceil(64) * rows,
                }
            };
            let dense: usize = chunks.iter().flatten()
                .flat_map(|c| &c.len_cap)
                .map(|&(_, cap)| 4 * cap as usize + word + 8)
                .sum::<usize>() + 8 * shards + chunks.iter().map(sidecars).sum::<usize>();
            prop_assert_eq!(r.memory_bytes(), dense, "budget {}", budget);

            let mut src = g.clone();
            let mut scratch = MergeScratch::default();
            let mut rounds = SmallRng::seed_from_u64(seed ^ budget as u64);
            for round in 0..4 {
                let leaver = NodeId(rounds.random_range(0..n as u32));
                prop_assert_eq!(src.remove_member(leaver), r.remove_member(leaver));
                let plan = *src.plan();
                let mut mail: Vec<Vec<HalfEdge>> = vec![Vec::new(); shards];
                for slot in 0..2 * n as u32 {
                    let a = NodeId(rounds.random_range(0..n as u32));
                    let b = NodeId(rounds.random_range(0..n as u32));
                    if a != b {
                        mail[plan.owner(a)].push((slot, a, b));
                        mail[plan.owner(b)].push((slot, b, a));
                    }
                }
                for h in [&mut src, &mut r] {
                    for (seg, entries) in h.segments_mut().into_iter().zip(&mail) {
                        seg.apply_half_edges(&[entries.as_slice()], &mut scratch);
                    }
                }
                prop_assert_eq!(src.m(), r.m(), "round {}", round);
                prop_assert_eq!(src.half_edge_count(), r.half_edge_count(), "round {}", round);
            }
            for u in src.nodes() {
                prop_assert_eq!(src.neighbors(u), r.neighbors(u), "budget {} row {:?}", budget, u);
            }
            r.validate().unwrap();
        }
    }

    /// No honest bootstrap stream is refused: whatever capacity a row
    /// reaches — one edge at a time, in whole-round merges of up to
    /// `n - 1` fresh entries, through compactions and after churn
    /// tombstones it — stays within the bound the assembler enforces for
    /// its `n`. Half of each round lands on a few hot rows, which fill to
    /// their full `n - 1` entries, where the bound is tight.
    #[test]
    fn honest_row_capacities_stay_within_the_bootstrap_bound(
        seed in any::<u64>(),
        small in 2usize..80,
        scale in 0usize..2,
        shards in 1usize..3,
        rounds in 1usize..16,
    ) {
        use gossip_graph::{HalfEdge, MergeScratch, SegSnapshotAssembler, ShardedArenaGraph};

        let n = small + [0, 1_500][scale];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xCA9);
        let mut g = ShardedArenaGraph::new(n, shards);
        let mut scratch = MergeScratch::default();
        let hot = (n / 64).max(1) as u32;
        let node = |rng: &mut SmallRng| NodeId(rng.random_range(0..n as u32));
        for round in 0..rounds {
            for _ in 0..n / 4 {
                g.add_edge(node(&mut rng), node(&mut rng));
            }
            if round % 4 == 3 {
                g.remove_member(NodeId(rng.random_range(0..hot)));
            }
            let plan = *g.plan();
            let mut mail: Vec<Vec<HalfEdge>> = vec![Vec::new(); shards];
            for slot in 0..4 * n as u32 {
                let a = if slot % 2 == 0 { NodeId(rng.random_range(0..hot)) } else { node(&mut rng) };
                let b = node(&mut rng);
                if a != b {
                    mail[plan.owner(a)].push((slot, a, b));
                    mail[plan.owner(b)].push((slot, b, a));
                }
            }
            for (seg, entries) in g.segments_mut().into_iter().zip(&mail) {
                seg.apply_half_edges(&[entries.as_slice()], &mut scratch);
            }
            for s in 0..shards {
                let mut asm = SegSnapshotAssembler::new(n);
                for chunk in g.segment(s).chunks(usize::MAX) {
                    let accepted = asm.accept(&chunk);
                    prop_assert!(accepted.is_ok(), "round {} segment {}: {:?}", round, s, accepted);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense rows: in an arena of ids below 64 a sorted list past two
    /// entries carries a membership sidecar, so almost every list here is
    /// dense. Random sorted inserts, whole-round merges, removals,
    /// tombstones and bootstrap rows — with enough churn that the slab
    /// compacts — leave every list equal to its model, and every probed
    /// `contains_sorted` (ids past the universe included) agrees with it.
    #[test]
    fn dense_rows_answer_membership_like_the_model(
        seed in any::<u64>(),
        lists in 8usize..48,
    ) {
        use gossip_graph::{MergeScratch, SliceArena};

        const UNIVERSE: u32 = 64;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDE45E);
        let mut a = SliceArena::new(lists, UNIVERSE as usize);
        let mut model = vec![BTreeSet::<u32>::new(); lists];
        let mut scratch = MergeScratch::default();
        let mut compactions = 0;
        for step in 0..4_000 {
            let n = a.lists();
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..UNIVERSE);
            let bytes = a.memory_bytes();
            match rng.random_range(0..100) {
                0..=49 => {
                    prop_assert_eq!(a.insert_sorted(u, NodeId(v)), model[u].insert(v), "step {}", step);
                }
                50..=69 => {
                    let halves: Vec<(usize, NodeId, u32)> = (0..rng.random_range(1..16u32))
                        .map(|slot| (rng.random_range(u..n.min(u + 3)), NodeId(rng.random_range(0..UNIVERSE)), slot))
                        .collect();
                    let mut got = Vec::new();
                    a.merge_rows(&mut scratch, halves.iter().copied(), |w, x, _| got.push((w, x.0)));
                    let mut want: Vec<(usize, u32)> = halves
                        .iter()
                        .filter(|&&(w, x, _)| model[w].insert(x.0))
                        .map(|&(w, x, _)| (w, x.0))
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "step {}", step);
                }
                70..=89 => {
                    prop_assert_eq!(a.remove_sorted(u, NodeId(v)), model[u].remove(&v), "step {}", step);
                }
                90..=96 => {
                    prop_assert_eq!(a.clear(u), model[u].len(), "step {}", step);
                    model[u].clear();
                }
                _ => {
                    let row: BTreeSet<u32> =
                        (0..rng.random_range(0..UNIVERSE)).map(|_| rng.random_range(0..UNIVERSE)).collect();
                    let entries: Vec<NodeId> = row.iter().map(|&x| NodeId(x)).collect();
                    a.push_list(&entries, (entries.len() + rng.random_range(0..3usize)) as u32);
                    model.push(row);
                }
            }
            // Nothing but a compaction shrinks the arena.
            compactions += usize::from(a.memory_bytes() < bytes);
            for _ in 0..4 {
                let (w, x) = (rng.random_range(0..a.lists()), rng.random_range(0..UNIVERSE + 8));
                prop_assert_eq!(a.contains_sorted(w, NodeId(x)), model[w].contains(&x), "step {}: {} in list {}", step, x, w);
            }
        }
        for (w, row) in model.iter().enumerate() {
            prop_assert!(a.slice(w).iter().map(|x| x.0).eq(row.iter().copied()), "list {}", w);
            for x in 0..UNIVERSE + 8 {
                prop_assert_eq!(a.contains_sorted(w, NodeId(x)), row.contains(&x), "{} in list {}", x, w);
            }
        }
        prop_assert!(compactions > 0, "no compaction in 4,000 steps");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Copy-on-write discipline of the sharded store: after `clone()`, a
    /// segment stays shared with the snapshot **exactly until** its owner
    /// shard actually mutates it. Successful writes un-share precisely the
    /// touched segments; rejected writes (duplicate edges, self-loops)
    /// never deep-copy anything; and the snapshot's contents stay frozen
    /// at clone time throughout.
    #[test]
    fn cow_snapshots_never_alias_mutated_segments(
        seed in any::<u64>(),
        n in 8usize..200,
        shards in 1usize..6,
        writes in 1usize..80,
    ) {
        use gossip_graph::ShardedArenaGraph;

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0_37);
        let mut g = ShardedArenaGraph::new(n, shards);
        for _ in 0..n {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }

        let snap = g.clone();
        let frozen_m = snap.m();
        let frozen: Vec<Vec<NodeId>> = (0..n)
            .map(|u| snap.neighbors(NodeId(u as u32)).to_vec())
            .collect();
        let mut dirtied = vec![false; g.shard_count()];
        for s in 0..g.shard_count() {
            prop_assert!(g.shares_segment(&snap, s), "fresh clone must share segment {}", s);
        }

        for _ in 0..writes {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            if a == b {
                continue;
            }
            if g.add_edge(NodeId(a), NodeId(b)) {
                dirtied[g.plan().owner(NodeId(a))] = true;
                dirtied[g.plan().owner(NodeId(b))] = true;
            }
            for (s, &dirty) in dirtied.iter().enumerate() {
                prop_assert_eq!(
                    !g.shares_segment(&snap, s),
                    dirty,
                    "segment {} sharing state wrong (dirtied={})", s, dirty
                );
            }
        }

        // The snapshot never moved.
        prop_assert_eq!(snap.m(), frozen_m);
        for (u, want) in frozen.iter().enumerate() {
            prop_assert_eq!(snap.neighbors(NodeId(u as u32)), &want[..]);
        }
        g.validate().unwrap();
        snap.validate().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two merge writers agree. A segment still shared with a snapshot
    /// is rebuilt by the round's merge, one its graph alone holds merges in
    /// place; on random segments — hot rows past the density rule (with
    /// sidecars), tombstoned rows of members that left, duplicate
    /// candidates in both orientations and of edges already held, and
    /// shards that get no mail — the two leave identical rows, per-segment
    /// `m_canonical` and `added`, both pass `validate`, the snapshot stays
    /// frozen, and exactly the segments that got mail stop sharing with
    /// it. On bare arenas the rebuild (`SliceArena::merged`) fires the same
    /// `on_new` sequence as the in-place `merge_rows` and leaves its source
    /// as it was.
    #[test]
    fn rebuild_and_in_place_merge_agree(
        seed in any::<u64>(),
        small in 2usize..80,
        scale in 0usize..2,
        shards_at in 0usize..4,
        receives in any::<u8>(),
        rounds in 1usize..5,
    ) {
        use gossip_graph::{HalfEdge, MergeScratch, ShardedArenaGraph, SliceArena};

        let n = small + [0, 2_100][scale];
        let shards = [1, 2, 3, 8][shards_at];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x2EB1);
        let mut g = ShardedArenaGraph::new(n, shards);
        let node = |rng: &mut SmallRng| NodeId(rng.random_range(0..n as u32));
        for _ in 0..2 * n {
            g.add_edge(node(&mut rng), node(&mut rng));
        }
        // A few hot rows past n/32 entries, so they carry sidecars.
        let hot = (n / 64).max(2) as u32;
        for h in 0..hot {
            for _ in 0..n / 16 + 4 {
                g.add_edge(NodeId(h), node(&mut rng));
            }
        }
        for _ in 0..rng.random_range(0..6) {
            g.remove_member(node(&mut rng));
        }
        let plan = *g.plan();
        // Mail only among the rows of the shards `receives` picks (shard
        // 0 always, so no round is empty), so the others get none.
        let picked: Vec<u32> = (0..n as u32)
            .filter(|&u| {
                let s = plan.owner(NodeId(u));
                s == 0 || receives >> (s % 8) & 1 == 1
            })
            .collect();
        let pick = |rng: &mut SmallRng| NodeId(picked[rng.random_range(0..picked.len())]);
        let (mut rebuild_scratch, mut in_place_scratch) = (MergeScratch::default(), MergeScratch::default());
        for round in 0..rounds {
            let snap = g.clone();
            let frozen: Vec<Vec<NodeId>> = snap.nodes().map(|u| snap.neighbors(u).to_vec()).collect();
            let mut in_place = g.clone();
            in_place.segments_mut();
            let mut proposals: Vec<(NodeId, NodeId)> = Vec::new();
            for i in 0..n {
                let a = if i % 3 == 0 { NodeId(picked[i % hot as usize % picked.len()]) } else { pick(&mut rng) };
                proposals.push((a, pick(&mut rng)));
                // An edge the row already holds, when its other end is mailable.
                if let Some(&b) = g.neighbors(a).first().filter(|b| picked.binary_search(&b.0).is_ok()) {
                    proposals.push((b, a));
                }
            }
            let echoes: Vec<(NodeId, NodeId)> = proposals.iter().step_by(4).map(|&(a, b)| (b, a)).collect();
            proposals.extend(echoes);
            let mut mail: Vec<Vec<HalfEdge>> = vec![Vec::new(); shards];
            for (slot, &(a, b)) in proposals.iter().enumerate() {
                if a != b {
                    mail[plan.owner(a)].push((slot as u32, a, b));
                    mail[plan.owner(b)].push((slot as u32, b, a));
                }
            }
            let mut added = [Vec::new(), Vec::new()];
            for ((h, scratch), added) in [(&mut g, &mut rebuild_scratch), (&mut in_place, &mut in_place_scratch)]
                .into_iter()
                .zip(&mut added)
            {
                for (mut commit, entries) in h.segment_commits().into_iter().zip(&mail) {
                    added.push(commit.apply_half_edges(&[entries.as_slice()], scratch));
                }
            }
            prop_assert_eq!(&added[0], &added[1], "added, round {}", round);
            for (s, entries) in mail.iter().enumerate() {
                prop_assert_eq!(g.segment(s).m_canonical(), in_place.segment(s).m_canonical(), "segment {}", s);
                prop_assert_eq!(g.shares_segment(&snap, s), entries.is_empty(), "round {} segment {}", round, s);
                prop_assert!(!in_place.shares_segment(&snap, s));
            }
            for u in g.nodes() {
                prop_assert_eq!(g.neighbors(u), in_place.neighbors(u), "round {} row {:?}", round, u);
                prop_assert_eq!(snap.neighbors(u), &frozen[u.index()][..], "snapshot row {:?}", u);
            }
            g.validate().unwrap();
            in_place.validate().unwrap();
        }

        // Bare arenas, ids below 64: most lists are dense.
        const UNIVERSE: u32 = 64;
        let mut a = SliceArena::new(0, UNIVERSE as usize);
        for _ in 0..rng.random_range(4..40) {
            let row: BTreeSet<u32> = (0..rng.random_range(0..UNIVERSE)).map(|_| rng.random_range(0..UNIVERSE)).collect();
            let entries: Vec<NodeId> = row.iter().map(|&x| NodeId(x)).collect();
            a.push_list(&entries, (entries.len() + rng.random_range(0..3usize)) as u32);
        }
        for _ in 0..rng.random_range(0..4) {
            a.clear(rng.random_range(0..a.lists()));
        }
        let lists = a.lists();
        // Candidates for every other list, each id drawn from a small
        // range so that duplicates are common.
        let halves: Vec<(usize, NodeId, u32)> = (0..rng.random_range(0..4 * lists as u32))
            .map(|slot| (2 * rng.random_range(0..lists.div_ceil(2)), NodeId(rng.random_range(0..UNIVERSE)), slot))
            .collect();
        let rows = |a: &SliceArena| (0..a.lists()).map(|u| a.slice(u).to_vec()).collect::<Vec<_>>();
        let before = rows(&a);
        let (mut by_rebuild, mut by_merge) = (Vec::new(), Vec::new());
        let rebuilt = a.merged(&mut rebuild_scratch, halves.iter().copied(), |u, v, slot| by_rebuild.push((u, v, slot)));
        prop_assert_eq!(&rows(&a), &before, "the rebuild wrote its source");
        a.merge_rows(&mut in_place_scratch, halves.iter().copied(), |u, v, slot| by_merge.push((u, v, slot)));
        prop_assert_eq!(&by_rebuild, &by_merge, "on_new sequence");
        prop_assert_eq!(rows(&rebuilt), rows(&a));
        prop_assert_eq!(rebuilt.total_len(), a.total_len());
        for x in 0..UNIVERSE + 4 {
            for u in 0..lists {
                prop_assert_eq!(rebuilt.contains_sorted(u, NodeId(x)), a.contains_sorted(u, NodeId(x)), "{} in list {}", x, u);
            }
        }
    }
}
