//! Cross-crate integration: the paper's headline claims at test scale.
//! Theorems 8 and 12 say O(n log² n) rounds w.h.p. on ANY connected graph;
//! we check a spread of topologies against a generous constant.

use discovery_gossip::prelude::*;
use gossip_core::ProposalRule;

fn families(n: usize, seed: u64) -> Vec<(&'static str, ArenaGraph)> {
    let mut rng = gossip_core::rng::stream_rng(seed, 0, 0);
    vec![
        ("path", generators::path(n)),
        ("cycle", generators::cycle(n)),
        ("star", generators::star(n)),
        ("double_star", generators::double_star(n)),
        ("binary_tree", generators::binary_tree(n)),
        ("random_tree", generators::random_tree(n, &mut rng)),
        ("gnm", generators::gnm_connected(n, 2 * n as u64, &mut rng)),
        ("barbell", generators::barbell(n / 2)),
        ("hypercube", generators::hypercube(n.ilog2())),
    ]
}

fn assert_within_bound<R: ProposalRule<ArenaGraph> + Clone>(rule: R, n: usize) {
    for (name, g) in families(n, 0xFA0) {
        let n_actual = g.n() as f64;
        let bound = 40.0 * n_actual * n_actual.ln() * n_actual.ln();
        let cfg = TrialConfig {
            trials: 4,
            base_seed: 99,
            max_rounds: bound as u64,
        };
        let rounds = convergence_rounds(&g, rule.clone(), ComponentwiseComplete::for_graph, &cfg);
        let worst = *rounds.iter().max().unwrap();
        assert!(
            (worst as f64) < bound,
            "{name}: {worst} rounds exceeds 40 n log² n = {bound:.0}"
        );
    }
}

#[test]
fn push_completes_all_families_within_bound() {
    assert_within_bound(Push, 32);
}

#[test]
fn pull_completes_all_families_within_bound() {
    assert_within_bound(Pull, 32);
}

#[test]
fn hybrid_no_slower_than_push_on_star() {
    let g = generators::star(48);
    let cfg = TrialConfig {
        trials: 6,
        base_seed: 5,
        max_rounds: 10_000_000,
    };
    let push = convergence_rounds(&g, Push, ComponentwiseComplete::for_graph, &cfg);
    let hybrid = convergence_rounds(&g, HybridPushPull, ComponentwiseComplete::for_graph, &cfg);
    let mp = push.iter().sum::<u64>() as f64 / push.len() as f64;
    let mh = hybrid.iter().sum::<u64>() as f64 / hybrid.len() as f64;
    assert!(
        mh < mp,
        "hybrid ({mh}) should beat plain push ({mp}) on a star"
    );
}

#[test]
fn disconnected_graph_reaches_componentwise_fixed_point() {
    // Two components: a path of 6 and a cycle of 5; the fixed point is
    // K6 ∪ K5 (15 + 10 edges), never a single complete graph.
    let mut g = ArenaGraph::new(11);
    for i in 0..5u32 {
        g.add_edge(NodeId(i), NodeId(i + 1));
    }
    for i in 0..5u32 {
        g.add_edge(NodeId(6 + i), NodeId(6 + (i + 1) % 5));
    }
    let mut check = ComponentwiseComplete::for_graph(&g);
    let mut engine = Engine::new(g, Push, 21);
    let out = engine.run_until(&mut check, 10_000_000);
    assert!(out.converged);
    assert_eq!(out.final_edges, 15 + 10);
    // No cross-component edge can ever exist.
    let g = engine.graph();
    for a in 0..6u32 {
        for b in 6..11u32 {
            assert!(!g.has_edge(NodeId(a), NodeId(b)));
        }
    }
}

#[test]
fn subgroup_discovery_is_host_size_independent() {
    // A k-club inside hosts of different sizes: restricted-process rounds
    // should depend on k, not on the host n (paper §1).
    let k = 12;
    let mut results = Vec::new();
    for host_n in [60usize, 240] {
        let mut rng = gossip_core::rng::stream_rng(9, 0, host_n as u64);
        let host = generators::watts_strogatz(host_n, 3, 0.1, &mut rng);
        // Club = BFS ball of size k around node 0 (connected induced subgraph).
        let dist = gossip_graph::traversal::bfs_distances(&host, NodeId(0));
        let mut members: Vec<NodeId> = (0..host.n()).map(NodeId::new).collect();
        members.sort_by_key(|u| dist[u.index()]);
        members.truncate(k);
        let rule = OnlySubset::new(Push, host.n(), &members);
        let cfg = TrialConfig {
            trials: 6,
            base_seed: 31,
            max_rounds: 10_000_000,
        };
        let rounds = convergence_rounds(
            &host,
            rule,
            |_g: &ArenaGraph| SubsetComplete::new(host.n(), &members),
            &cfg,
        );
        results.push(rounds.iter().sum::<u64>() as f64 / rounds.len() as f64);
    }
    let (small, large) = (results[0], results[1]);
    // 4x the host should not even double the subgroup's convergence time.
    assert!(
        large < small * 2.0 + 50.0,
        "host-size dependence detected: {small} vs {large}"
    );
}

#[test]
fn min_degree_never_decreases() {
    let g = generators::random_tree(40, &mut gossip_core::rng::stream_rng(2, 0, 0));
    let mut engine = Engine::new(g, Pull, 17);
    let mut last = engine.graph().min_degree();
    for _ in 0..2000 {
        engine.step();
        let d = engine.graph().min_degree();
        assert!(d >= last, "min degree dropped {last} -> {d}");
        last = d;
        if engine.graph().is_complete() {
            break;
        }
    }
}

#[test]
fn faulty_converges_slower_but_converges() {
    let g = generators::star(24);
    let cfg = TrialConfig {
        trials: 6,
        base_seed: 77,
        max_rounds: 10_000_000,
    };
    let clean = convergence_rounds(&g, Push, ComponentwiseComplete::for_graph, &cfg);
    let faulty = convergence_rounds(
        &g,
        Faulty::new(Push, 0.5),
        ComponentwiseComplete::for_graph,
        &cfg,
    );
    let mc = clean.iter().sum::<u64>() as f64 / clean.len() as f64;
    let mf = faulty.iter().sum::<u64>() as f64 / faulty.len() as f64;
    assert!(mf > mc, "50% failure should slow convergence: {mc} vs {mf}");
    // ...roughly by 2x (each proposal survives w.p. 1/2); allow slack.
    assert!(
        mf < mc * 5.0,
        "faulty should not be catastrophically slower"
    );
}

#[test]
fn partial_participation_converges() {
    let g = generators::cycle(20);
    let cfg = TrialConfig {
        trials: 4,
        base_seed: 13,
        max_rounds: 10_000_000,
    };
    let rounds = convergence_rounds(
        &g,
        Partial::new(Pull, 0.25),
        ComponentwiseComplete::for_graph,
        &cfg,
    );
    assert!(rounds.iter().all(|&r| r > 0));
}
