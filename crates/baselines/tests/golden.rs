//! Golden pin of every baseline's [`DiscoveryOutcome`] at two fixed
//! `(graph, seed)` pairs. The values were captured from the four
//! hand-written two-phase drivers before `KernelBaseline` replaced them:
//! any drift in draw order, delivery order or bit accounting shows up here
//! as a changed number, not as a statistical wobble.

use gossip_baselines::{
    DiscoveryAlgorithm, DiscoveryOutcome, Flooding, Knowledge, NameDropper, PointerJump,
    ThrottledNameDropper,
};
use gossip_graph::{generators, UndirectedGraph};

/// `[name-dropper, pointer-jump, throttled-nd (budget 2), flooding]`.
fn outcomes(g: &UndirectedGraph, seed: u64) -> [DiscoveryOutcome; 4] {
    let k = Knowledge::from_undirected(g);
    [
        NameDropper::new(k.clone(), seed).run_to_completion(1_000_000),
        PointerJump::new(k.clone(), seed).run_to_completion(1_000_000),
        ThrottledNameDropper::new(k, 2, seed).run_to_completion(1_000_000),
        Flooding::new(g).run_to_completion(1_000_000),
    ]
}

fn pin(
    rounds: u64,
    total_bits: u64,
    max_message_bits: u64,
    total_messages: u64,
) -> DiscoveryOutcome {
    DiscoveryOutcome {
        rounds,
        complete: true,
        total_bits,
        max_message_bits,
        total_messages,
    }
}

#[test]
fn tree_plus_random_edges_64_seed_7() {
    let mut rng = gossip_core::rng::stream_rng(7, 0, 0);
    let g = generators::tree_plus_random_edges(64, 128, &mut rng);
    assert_eq!(
        outcomes(&g, 7),
        [
            pin(12, 175_134, 384, 768),
            pin(12, 195_654, 384, 1536),
            pin(221, 254_382, 18, 14_144),
            pin(6, 392_160, 384, 1536),
        ]
    );
}

#[test]
fn cycle_24_seed_11() {
    let g = generators::cycle(24);
    assert_eq!(
        outcomes(&g, 11),
        [
            pin(11, 15_635, 120, 264),
            pin(15, 28_135, 120, 720),
            pin(56, 20_005, 15, 1344),
            pin(11, 34_320, 115, 528),
        ]
    );
}
