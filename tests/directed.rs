//! Section 5 integration: the directed two-hop walk, its termination
//! condition, and the paper's two lower-bound constructions.

use discovery_gossip::prelude::*;
use gossip_graph::closure::{arcs_within_closure, Closure};

#[test]
fn directed_pull_terminates_on_strongly_connected_graphs() {
    for n in [8usize, 16] {
        for (name, g) in [
            ("cycle", generators::directed_cycle(n)),
            ("thm15", generators::theorem15_graph(n)),
            (
                "gnp",
                generators::directed_gnp_strong(
                    n,
                    0.3,
                    &mut gossip_core::rng::stream_rng(1, 0, n as u64),
                ),
            ),
        ] {
            let mut check = ClosureReached::for_graph(&g);
            let target = check.target_arcs();
            let mut engine = Engine::new(g, DirectedPull, 42);
            let out = engine.run_until(&mut check, 100_000_000);
            assert!(out.converged, "{name} n={n} did not terminate");
            assert_eq!(out.final_edges, target, "{name} wrong closure size");
        }
    }
}

#[test]
fn added_arcs_always_inside_initial_closure() {
    // The key safety invariant: the walk only shortcuts existing paths, so
    // G_t's arcs stay inside the transitive closure of G_0 forever.
    let g0 = generators::theorem14_graph(16);
    let closure = Closure::of(&g0);
    let mut engine = Engine::new(g0, DirectedPull, 9);
    for _ in 0..500 {
        engine.step();
        assert!(arcs_within_closure(engine.graph(), &closure));
    }
}

#[test]
fn theorem14_graph_terminates_by_adding_exactly_the_chain_arcs() {
    let n = 16;
    let g0 = generators::theorem14_graph(n);
    let baseline = g0.arc_count();
    let mut check = ClosureReached::for_graph(&g0);
    let mut engine = Engine::new(g0, DirectedPull, 5);
    let out = engine.run_until(&mut check, 100_000_000);
    assert!(out.converged);
    // Exactly the q = n/4 arcs (3i -> 3i+2) are addable.
    assert_eq!(out.final_edges, baseline + (n / 4) as u64);
    for i in 0..n / 4 {
        assert!(engine
            .graph()
            .has_arc(NodeId::new(3 * i), NodeId::new(3 * i + 2)));
    }
}

#[test]
fn directed_is_asymptotically_slower_than_undirected() {
    // Same cycle size: directed needs Ω(n²)-ish rounds, undirected pull
    // O(n log² n). At n = 32 the gap is already unmistakable.
    let n = 32;
    let cfg = TrialConfig {
        trials: 4,
        base_seed: 3,
        max_rounds: 100_000_000,
    };
    let directed = convergence_rounds(
        &generators::directed_cycle(n),
        DirectedPull,
        ClosureReached::for_graph,
        &cfg,
    );
    let undirected = convergence_rounds(
        &generators::cycle(n),
        Pull,
        ComponentwiseComplete::for_graph,
        &cfg,
    );
    let md = directed.iter().sum::<u64>() as f64 / directed.len() as f64;
    let mu = undirected.iter().sum::<u64>() as f64 / undirected.len() as f64;
    assert!(
        md > 2.0 * mu,
        "directed ({md}) should be much slower than undirected ({mu})"
    );
}

#[test]
fn weakly_connected_dag_two_hop_cannot_escape_closure() {
    // On a DAG the process terminates with the closure; nodes with no
    // out-path stay sinks forever.
    let g0 = generators::directed_path(6);
    let mut check = ClosureReached::for_graph(&g0);
    let mut engine = Engine::new(g0, DirectedPull, 31);
    let out = engine.run_until(&mut check, 10_000_000);
    assert!(out.converged);
    assert_eq!(out.final_edges, 15); // 5+4+3+2+1
    assert_eq!(engine.graph().out_degree(NodeId(5)), 0);
}

#[test]
fn theorem15_scaling_is_superlinear_in_n() {
    // Ω(n²): doubling n should much-more-than-double the rounds.
    let cfg = TrialConfig {
        trials: 4,
        base_seed: 8,
        max_rounds: 1_000_000_000,
    };
    let small = convergence_rounds(
        &generators::theorem15_graph(8),
        DirectedPull,
        ClosureReached::for_graph,
        &cfg,
    );
    let big = convergence_rounds(
        &generators::theorem15_graph(32),
        DirectedPull,
        ClosureReached::for_graph,
        &cfg,
    );
    let ms = small.iter().sum::<u64>() as f64 / small.len() as f64;
    let mb = big.iter().sum::<u64>() as f64 / big.len() as f64;
    assert!(
        mb > 4.0 * ms,
        "4x n gave only {ms} -> {mb}; expected superlinear growth"
    );
}
