//! Reproducibility is a deliverable: every layer (engine, trials, baselines,
//! network simulator) must be a pure function of its seed.

use discovery_gossip::prelude::*;
use gossip_net::NameDropperProtocol;

#[test]
fn engine_parallel_equals_sequential_full_run() {
    let g =
        generators::tree_plus_random_edges(128, 256, &mut gossip_core::rng::stream_rng(1, 0, 0));
    let run = |par: Parallelism| {
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut engine = Engine::new(g.clone(), Push, 1234).with_parallelism(par);
        let out = engine.run_until(&mut check, 10_000_000);
        (out, engine.into_graph())
    };
    let (out_seq, g_seq) = run(Parallelism::Sequential);
    let (out_par, g_par) = run(Parallelism::Parallel);
    assert_eq!(out_seq, out_par);
    assert!(g_seq.same_edges(&g_par));
    for u in g_seq.nodes() {
        assert_eq!(
            g_seq.neighbors(u),
            g_par.neighbors(u),
            "adjacency order differs at {u:?}"
        );
    }
}

#[test]
fn trial_batches_independent_of_parallelism_and_repeatable() {
    let g = generators::star(20);
    let mk = |parallel| TrialConfig {
        trials: 10,
        base_seed: 5,
        max_rounds: 1_000_000,
        parallel,
    };
    let a = convergence_rounds(&g, Pull, ComponentwiseComplete::for_graph, &mk(true));
    let b = convergence_rounds(&g, Pull, ComponentwiseComplete::for_graph, &mk(false));
    let c = convergence_rounds(&g, Pull, ComponentwiseComplete::for_graph, &mk(true));
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn directed_runs_repeatable() {
    let g = generators::theorem15_graph(12);
    let run = || {
        let mut check = ClosureReached::for_graph(&g);
        let mut e = Engine::new(g.clone(), DirectedPull, 77);
        e.run_until(&mut check, 100_000_000)
    };
    assert_eq!(run(), run());
}

#[test]
fn baselines_repeatable() {
    let g = generators::cycle(16);
    let k = Knowledge::from_undirected(&g);
    let a = NameDropper::new(k.clone(), 9).run_to_completion(10_000);
    let b = NameDropper::new(k.clone(), 9).run_to_completion(10_000);
    assert_eq!(a, b);
    let c = PointerJump::new(k.clone(), 9).run_to_completion(10_000);
    let d = PointerJump::new(k, 9).run_to_completion(10_000);
    assert_eq!(c, d);
}

#[test]
fn network_simulation_repeatable_under_loss_and_churn() {
    let g = generators::complete(10);
    let run = || {
        let mut net = Network::from_graph(
            &g,
            64,
            NetConfig {
                drop_prob: 0.25,
                seed: 33,
            },
        );
        let churn = ChurnModel {
            join_prob: 0.2,
            leave_prob: 0.2,
            bootstrap_contacts: 2,
            seed: 44,
        };
        let mut proto = NameDropperProtocol;
        let mut trace = Vec::new();
        for round in 0..60 {
            churn.apply(&mut net, round);
            let t = net.step(&mut proto);
            trace.push((t, net.alive_count()));
        }
        (trace, net.coverage().to_bits(), net.staleness().to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_give_different_trajectories() {
    let g = generators::star(24);
    let rounds_for = |seed| {
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut e = Engine::new(g.clone(), Push, seed);
        e.run_until(&mut check, 1_000_000).rounds
    };
    let all: Vec<u64> = (0..8).map(rounds_for).collect();
    assert!(
        all.iter().any(|&r| r != all[0]),
        "8 seeds, identical convergence rounds: {all:?}"
    );
}
