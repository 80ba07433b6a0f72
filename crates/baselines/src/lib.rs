//! # gossip-baselines
//!
//! The resource-discovery algorithms the paper positions itself against,
//! run over a shared directed [`knowledge::Knowledge`] state with
//! byte-honest message accounting. Each is a `gossip-core` protocol kernel
//! interpreted by the one round loop in [`runner`]:
//!
//! * [`NameDropper`] — Harchol-Balter–Leighton–Lewin (PODC 1999): random
//!   neighbor gets your whole contact list. `O(log² n)` rounds, `Θ(n log n)`
//!   bits per message.
//! * [`PointerJump`] — pull variant from the same lineage: learn all
//!   contacts of a random contact.
//! * [`ThrottledNameDropper`] — Name Dropper under the paper's
//!   `O(log n)`-bits-per-message constraint, with the per-destination cursor
//!   state the paper says such an adaptation requires.
//! * [`Flooding`] — deterministic diameter-round completion at maximum
//!   bandwidth; the round-complexity envelope.
//!
//! ## The runner
//!
//! [`KernelBaseline<K>`] runs any [`gossip_core::ProtocolKernel`] in two
//! phases per round. First every node's `on_round` decides against
//! round-start state — its own contact list (or, for flooding, its row of
//! the fixed initial topology), its own `NodeState`, and the
//! `(seed, round, node)` random stream — and *every* share it emits is
//! collected. Then the shares are delivered in `(sender, emission)` order,
//! each kind with the delivery and bit cost below (an id is
//! [`id_bits`]`(n)` bits; every message also carries its sender's id):
//!
//! | `Share`       | messages               | payload                                     | who absorbs |
//! |---------------|------------------------|---------------------------------------------|-------------|
//! | `KnownList`   | 1                      | sender's round-start list, ascending id     | target      |
//! | `PullRequest` | 2: 1-id request, reply | target's round-start list, ascending id     | requester   |
//! | `Slice`       | 1                      | window of the sender's arrival-ordered list | target      |
//!
//! The four names above are type aliases over the runner; a new baseline
//! (rate-limited dissemination, say) is a new kernel, not a new loop.
//!
//! The push/pull processes themselves live in `gossip-core`; experiment
//! `run_all --only E10` puts all of them in one table (rounds vs message size vs
//! total traffic).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]

pub mod algorithm;
pub mod knowledge;
pub mod runner;

pub use algorithm::{id_bits, DiscoveryAlgorithm, DiscoveryOutcome, RoundIO};
pub use knowledge::Knowledge;
pub use runner::{Flooding, KernelBaseline, NameDropper, PointerJump, ThrottledNameDropper};

// The runner's unit tests, one module per alias. They sit at the crate root
// so their ids stay `flooding::tests::…`, `name_dropper::tests::…` and so
// on, the names test reports have always listed them under.

#[cfg(test)]
mod flooding {
    mod tests {
        use crate::*;
        use gossip_graph::traversal::diameter;
        use gossip_graph::{generators, NodeId};

        #[test]
        fn completes_in_diameter_minus_one_rounds() {
            // After round t, u knows everything within distance t+1 of u
            // (initial knowledge already covers distance 1).
            for g in [
                generators::path(17),
                generators::cycle(16),
                generators::binary_tree(31),
            ] {
                let d = diameter(&g).unwrap() as u64;
                let mut f = Flooding::new(&g);
                let out = f.run_to_completion(10_000);
                assert!(out.complete);
                assert_eq!(out.rounds, d.saturating_sub(1), "diameter {d}");
            }
        }

        #[test]
        fn complete_graph_needs_zero_rounds() {
            let g = generators::complete(8);
            let mut f = Flooding::new(&g);
            let out = f.run_to_completion(10);
            assert!(out.complete);
            assert_eq!(out.rounds, 0);
        }

        #[test]
        fn floods_only_along_initial_edges() {
            let g = generators::path(5);
            let mut f = Flooding::new(&g);
            f.step();
            // Node 0 learns distance-2 node but cannot have received anything
            // from beyond its single neighbor's reach.
            assert!(f.knowledge().knows(NodeId(0), NodeId(2)));
            assert!(!f.knowledge().knows(NodeId(0), NodeId(4)));
        }
    }
}

#[cfg(test)]
mod name_dropper {
    mod tests {
        use crate::*;
        use gossip_graph::{generators, NodeId};

        #[test]
        fn completes_star_quickly() {
            let g = generators::star(32);
            let mut nd = NameDropper::new(Knowledge::from_undirected(&g), 1);
            let out = nd.run_to_completion(10_000);
            assert!(out.complete);
            // Polylog: a 32-node star should complete in well under 60 rounds.
            assert!(out.rounds < 60, "rounds = {}", out.rounds);
            nd.knowledge().validate().unwrap();
        }

        #[test]
        fn completes_path() {
            let g = generators::path(24);
            let mut nd = NameDropper::new(Knowledge::from_undirected(&g), 3);
            let out = nd.run_to_completion(10_000);
            assert!(out.complete);
            assert!(out.rounds < 200, "rounds = {}", out.rounds);
        }

        #[test]
        fn messages_grow_to_linear_size() {
            let n = 64;
            let g = generators::tree_plus_random_edges(
                n,
                128,
                &mut gossip_core::rng::stream_rng(7, 0, 0),
            );
            let mut nd = NameDropper::new(Knowledge::from_undirected(&g), 7);
            let out = nd.run_to_completion(10_000);
            assert!(out.complete);
            // Near the end someone ships (almost) the full directory: Θ(n log n) bits.
            let full_list_bits = (n as u64) * id_bits(n);
            assert!(
                out.max_message_bits >= full_list_bits / 2,
                "max message {} bits, full list {} bits",
                out.max_message_bits,
                full_list_bits
            );
        }

        #[test]
        fn deterministic_under_seed() {
            let g = generators::cycle(20);
            let k = Knowledge::from_undirected(&g);
            let out1 = NameDropper::new(k.clone(), 11).run_to_completion(10_000);
            let out2 = NameDropper::new(k, 11).run_to_completion(10_000);
            assert_eq!(out1, out2);
        }

        #[test]
        fn synchronous_no_same_round_forwarding() {
            // Directed-knowledge chain 0->1: after one round, 1 might learn 0
            // (if 0 sends to 1... but 0 only knows 1, so 0 sends {0,1} to 1 ->
            // 1 learns 0). 2 can't learn anything about 0 in the same round.
            let mut k = Knowledge::new(3);
            k.learn(NodeId(0), NodeId(1));
            k.learn(NodeId(1), NodeId(2));
            let mut nd = NameDropper::new(k, 5);
            nd.step();
            // Whatever happened, node 2 cannot know node 0 after one round:
            // the only path 0 -> 1 -> 2 needs two rounds.
            assert!(!nd.knowledge().knows(NodeId(2), NodeId(0)));
        }
    }
}

#[cfg(test)]
mod pointer_jump {
    mod tests {
        use crate::*;
        use gossip_graph::{generators, NodeId};

        #[test]
        fn completes_connected_graphs() {
            for (g, budget) in [
                (generators::star(24), 2_000u64),
                (generators::path(24), 5_000),
                (generators::cycle(24), 5_000),
            ] {
                let mut pj = PointerJump::new(Knowledge::from_undirected(&g), 2);
                let out = pj.run_to_completion(budget);
                assert!(out.complete, "{} rounds insufficient", budget);
                pj.knowledge().validate().unwrap();
            }
        }

        #[test]
        fn pull_direction_is_correct() {
            // Knowledge 0 -> 1 only. Node 0 pulls 1's (empty) list and learns
            // nothing new beyond 1 (already known). Node 1 knows nobody, pulls
            // nothing. After one round: 1 still ignorant of 0 (pull, not push).
            let mut k = Knowledge::new(2);
            k.learn(NodeId(0), NodeId(1));
            let mut pj = PointerJump::new(k, 9);
            pj.step();
            assert!(!pj.knowledge().knows(NodeId(1), NodeId(0)));
            assert!(pj.knowledge().knows(NodeId(0), NodeId(1)));
        }

        #[test]
        fn deterministic_under_seed() {
            let g = generators::cycle(16);
            let k = Knowledge::from_undirected(&g);
            let a = PointerJump::new(k.clone(), 4).run_to_completion(10_000);
            let b = PointerJump::new(k, 4).run_to_completion(10_000);
            assert_eq!(a, b);
        }

        #[test]
        fn reply_messages_account_bits() {
            let g = generators::complete(8);
            let mut pj = PointerJump::new(Knowledge::from_undirected(&g), 1);
            let io = pj.step();
            // Complete: every node pulls; 16 messages (8 requests + 8 replies).
            assert_eq!(io.messages, 16);
            // Each reply carries 7 contacts + sender = 8 ids of 3 bits.
            assert_eq!(io.max_message_bits, 8 * 3);
            assert_eq!(io.learned, 0); // everyone already knows everyone
        }
    }
}

#[cfg(test)]
mod throttled {
    mod tests {
        use crate::*;
        use gossip_graph::generators;

        #[test]
        fn message_size_respects_budget() {
            let g = generators::complete(32);
            let mut t = ThrottledNameDropper::new(Knowledge::from_undirected(&g), 2, 1);
            for _ in 0..20 {
                let io = t.step();
                // At most budget + 1 (sender) addresses per message.
                assert!(io.max_message_bits <= 3 * id_bits(32));
            }
        }

        #[test]
        fn completes_eventually() {
            let g = generators::star(16);
            let mut t = ThrottledNameDropper::new(Knowledge::from_undirected(&g), 1, 2);
            let out = t.run_to_completion(100_000);
            assert!(out.complete);
            t.knowledge().validate().unwrap();
        }

        #[test]
        fn slower_than_unthrottled() {
            let g = generators::gnm_connected(48, 96, &mut gossip_core::rng::stream_rng(3, 0, 0));
            let k = Knowledge::from_undirected(&g);
            let full = NameDropper::new(k.clone(), 5).run_to_completion(100_000);
            let thin = ThrottledNameDropper::new(k, 1, 5).run_to_completion(100_000);
            assert!(full.complete && thin.complete);
            assert!(
                thin.rounds > full.rounds,
                "throttled {} rounds vs full {}",
                thin.rounds,
                full.rounds
            );
            // ... but with far smaller messages.
            assert!(thin.max_message_bits < full.max_message_bits);
        }

        #[test]
        #[should_panic(expected = "budget")]
        fn rejects_zero_budget() {
            let _ = ThrottledNameDropper::new(Knowledge::new(4), 0, 1);
        }
    }
}
