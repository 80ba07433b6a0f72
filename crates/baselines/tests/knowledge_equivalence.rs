//! The arena-backed [`Knowledge`] store against a `Vec<BTreeSet<u32>>`
//! reference model plus per-node arrival lists: identical contact sets,
//! identical arrival order, and identical `known_pairs()` under random
//! learn/absorb sequences. Seeded — failures print `PROPTEST_SEED=<n>` for
//! replay.

use gossip_baselines::Knowledge;
use gossip_graph::NodeId;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The reference store: each node's contacts as an ordered set, and the
/// same contacts in the order they were learned.
struct Model {
    sets: Vec<BTreeSet<u32>>,
    arrival: Vec<Vec<NodeId>>,
    pairs: u64,
}

impl Model {
    fn new(n: usize) -> Self {
        Model {
            sets: vec![BTreeSet::new(); n],
            arrival: vec![Vec::new(); n],
            pairs: 0,
        }
    }

    fn learn(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || !self.sets[u.index()].insert(v.0) {
            return false;
        }
        self.arrival[u.index()].push(v);
        self.pairs += 1;
        true
    }

    /// Absorb: the sender's contacts in ascending id order, then the
    /// sender itself — the order the arena store must reproduce.
    fn absorb(&mut self, dst: NodeId, sender: NodeId) -> u64 {
        let payload: Vec<u32> = self.sets[sender.index()].iter().copied().collect();
        let mut gained = 0;
        for v in payload {
            gained += self.learn(dst, NodeId(v)) as u64;
        }
        gained += self.learn(dst, sender) as u64;
        gained
    }
}

proptest! {
    /// Random interleavings of `learn` and `absorb` leave both stores with
    /// the same pair count, the same membership, and the same
    /// arrival-ordered contact lists (the sampling surface — equality here
    /// means the baselines draw from the same lists the model describes).
    #[test]
    fn arena_knowledge_matches_adjset_model(
        seed in any::<u64>(),
        n in 2usize..40,
        ops in 1usize..300,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arena = Knowledge::new(n);
        let mut model = Model::new(n);
        for _ in 0..ops {
            let u = NodeId(rng.random_range(0..n as u32));
            let v = NodeId(rng.random_range(0..n as u32));
            if rng.random_range(0..4u32) == 0 {
                // Absorb u's whole list into v, the way the baselines do:
                // sorted payload + sender address.
                let payload = arena.sorted_contacts(u).to_vec();
                let got = arena.absorb(v, u, &payload);
                let want = model.absorb(v, u);
                prop_assert_eq!(got, want, "absorb({:?} <- {:?})", v, u);
            } else {
                prop_assert_eq!(arena.learn(u, v), model.learn(u, v));
            }
        }
        prop_assert_eq!(arena.known_pairs(), model.pairs);
        for u in 0..n {
            let u = NodeId::new(u);
            prop_assert_eq!(arena.contacts(u), &model.arrival[u.index()][..], "arrival order at {:?}", u);
            for v in 0..n {
                let v = NodeId::new(v);
                prop_assert_eq!(arena.knows(u, v), model.sets[u.index()].contains(&v.0));
            }
        }
        arena.validate().unwrap();
    }
}
