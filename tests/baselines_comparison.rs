//! The paper's positioning (§1): gossip discovery trades rounds for
//! bandwidth against Name Dropper-style algorithms. These tests pin the
//! qualitative shape of that trade-off end to end.

use discovery_gossip::prelude::*;
use gossip_baselines::id_bits;

/// Rounds for the push process (graph model) on `g`.
fn push_rounds(g: &ArenaGraph, seed: u64) -> u64 {
    let mut check = ComponentwiseComplete::for_graph(g);
    let mut engine = Engine::new(g.clone(), Push, seed);
    let out = engine.run_until(&mut check, 100_000_000);
    assert!(out.converged);
    out.rounds
}

#[test]
fn name_dropper_wins_rounds_loses_bandwidth() {
    let n = 64;
    let g = generators::tree_plus_random_edges(n, 128, &mut gossip_core::rng::stream_rng(4, 0, 0));
    let mut nd = NameDropper::new(Knowledge::from_undirected(&g), 2);
    let nd_out = nd.run_to_completion(100_000);
    assert!(nd_out.complete);
    let push = push_rounds(&g, 2);

    // Rounds: ND is at least 5x faster at n = 64.
    assert!(
        nd_out.rounds * 5 <= push,
        "ND {} rounds vs push {} rounds",
        nd_out.rounds,
        push
    );
    // Bandwidth: ND's max message is Θ(n log n) bits; push sends one id.
    let push_msg_bits = id_bits(n);
    assert!(
        nd_out.max_message_bits > 10 * push_msg_bits,
        "ND max message {} bits should dwarf push's {} bits",
        nd_out.max_message_bits,
        push_msg_bits
    );
}

#[test]
fn pointer_jump_completes_but_slower_than_nd_on_stars() {
    // On a star, pulling from the center gives you the world; pulling from
    // a leaf gives you the center you already know. ND pushes the center's
    // list outward at the same rate, but leaves' pushes also inform the
    // center. Both complete; both must beat the throttled variant.
    let g = generators::star(32);
    let k = Knowledge::from_undirected(&g);
    let nd = NameDropper::new(k.clone(), 3).run_to_completion(100_000);
    let pj = PointerJump::new(k.clone(), 3).run_to_completion(100_000);
    let thin = ThrottledNameDropper::new(k, 1, 3).run_to_completion(1_000_000);
    assert!(nd.complete && pj.complete && thin.complete);
    assert!(thin.rounds > nd.rounds);
    assert!(thin.max_message_bits <= 2 * id_bits(32));
}

#[test]
fn flooding_matches_bfs_depth_on_all_families() {
    use gossip_graph::traversal::diameter;
    for g in [
        generators::path(13),
        generators::star(20),
        generators::binary_tree(15),
        generators::cycle(12),
    ] {
        let d = diameter(&g).unwrap() as u64;
        let out = Flooding::new(&g).run_to_completion(1_000);
        assert!(out.complete);
        assert_eq!(out.rounds, d.saturating_sub(1), "diameter {d}");
    }
}

#[test]
fn throttled_total_bits_comparable_to_nd() {
    // Throttling spreads the same information over more rounds; total
    // traffic should be within an order of magnitude, not explode.
    let g = generators::gnm_connected(48, 96, &mut gossip_core::rng::stream_rng(6, 0, 0));
    let k = Knowledge::from_undirected(&g);
    let nd = NameDropper::new(k.clone(), 8).run_to_completion(100_000);
    let thin = ThrottledNameDropper::new(k, 4, 8).run_to_completion(1_000_000);
    assert!(nd.complete && thin.complete);
    assert!(thin.total_bits < nd.total_bits * 10);
}

#[test]
fn knowledge_graph_process_equivalence() {
    // Running the abstract push process and then converting to Knowledge
    // must equal complete knowledge exactly when the graph is complete.
    let g = generators::cycle(10);
    let mut check = ComponentwiseComplete::for_graph(&g);
    let mut engine = Engine::new(g, Push, 11);
    engine.run_until(&mut check, 1_000_000);
    let k = Knowledge::from_undirected(engine.graph());
    assert!(k.is_complete());
}
