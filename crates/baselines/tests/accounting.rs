//! Cross-algorithm accounting invariants: the RoundIO ledger must agree
//! with the knowledge state it claims to describe.

use gossip_baselines::{
    id_bits, DiscoveryAlgorithm, Flooding, Knowledge, NameDropper, PointerJump,
    ThrottledNameDropper,
};
use gossip_graph::generators;
use proptest::prelude::*;

fn algos(
    k: &Knowledge,
    g: &gossip_graph::ArenaGraph,
    seed: u64,
) -> Vec<Box<dyn DiscoveryAlgorithm>> {
    vec![
        Box::new(NameDropper::new(k.clone(), seed)),
        Box::new(PointerJump::new(k.clone(), seed)),
        Box::new(ThrottledNameDropper::new(k.clone(), 2, seed)),
        Box::new(Flooding::new(g)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sum of per-round `learned` equals the growth in known pairs, for
    /// every algorithm, on random connected graphs.
    #[test]
    fn learned_ledger_matches_knowledge_growth(seed in any::<u64>(), n in 4usize..24) {
        let mut rng = gossip_core::rng::stream_rng(seed, 0, 0);
        let g = generators::random_tree(n, &mut rng);
        let k0 = Knowledge::from_undirected(&g);
        let before = k0.known_pairs();
        for mut algo in algos(&k0, &g, seed) {
            let mut learned_total = 0;
            for _ in 0..30 {
                learned_total += algo.step().learned;
                algo.knowledge().validate().unwrap();
            }
            prop_assert_eq!(
                learned_total,
                algo.knowledge().known_pairs() - before,
                "{} ledger mismatch",
                algo.name()
            );
        }
    }

    /// Message bits are always at least one id per message and never exceed
    /// the full-directory payload.
    #[test]
    fn message_bits_bounded(seed in any::<u64>(), n in 4usize..24) {
        let mut rng = gossip_core::rng::stream_rng(seed, 1, 0);
        let g = generators::random_tree(n, &mut rng);
        let k0 = Knowledge::from_undirected(&g);
        let full = (n as u64 + 1) * id_bits(n);
        for mut algo in algos(&k0, &g, seed) {
            for _ in 0..20 {
                let io = algo.step();
                if io.messages > 0 {
                    prop_assert!(io.max_message_bits >= id_bits(n));
                    prop_assert!(io.max_message_bits <= full);
                    prop_assert!(io.bits >= io.messages * id_bits(n));
                }
            }
        }
    }

    /// All algorithms reach the same fixed point (complete knowledge) on
    /// random connected graphs.
    #[test]
    fn shared_fixed_point(seed in any::<u64>(), n in 4usize..16) {
        let mut rng = gossip_core::rng::stream_rng(seed, 2, 0);
        let g = generators::random_tree(n, &mut rng);
        let k0 = Knowledge::from_undirected(&g);
        for mut algo in algos(&k0, &g, seed) {
            let out = algo.run_to_completion(1_000_000);
            prop_assert!(out.complete, "{} incomplete", algo.name());
            prop_assert!(algo.knowledge().is_complete());
        }
    }
}
