//! A kernel that emits two shares per round, of two different kinds. The
//! four shipped kernels emit one kind each, so this is what checks that
//! `KernelBaseline` delivers and accounts for *every* share a node emits —
//! a driver that read only `shares.first()` would deliver the pull and drop
//! the list.

use gossip_baselines::{DiscoveryAlgorithm, KernelBaseline, Knowledge, RoundIO};
use gossip_core::{Chooser, Effects, NodeState, NodeView, ProtocolKernel, Share};
use gossip_graph::NodeId;

/// Pulls from its first contact, then sends its whole list to its second.
struct PullThenTell;

impl ProtocolKernel for PullThenTell {
    fn name(&self) -> &'static str {
        "pull-then-tell"
    }

    fn on_round<V: NodeView + ?Sized, C: Chooser + ?Sized>(
        &self,
        _state: &mut NodeState,
        view: &V,
        _choose: &mut C,
        out: &mut Effects,
    ) {
        if let [first, second, ..] = *view.contacts() {
            out.share(first, Share::PullRequest);
            out.share(second, Share::KnownList);
        }
    }

    fn max_message_ids(&self) -> Option<u64> {
        None
    }
}

#[test]
fn both_shares_are_delivered_and_accounted() {
    // 0 knows [1, 2]; 1 knows [3]. Only node 0 has two contacts, so only it
    // sends: a pull to 1 and its list to 2.
    let mut k = Knowledge::new(4);
    k.learn(NodeId(0), NodeId(1));
    k.learn(NodeId(0), NodeId(2));
    k.learn(NodeId(1), NodeId(3));
    let mut algo = KernelBaseline::from_kernel(PullThenTell, k, 1);
    assert_eq!(algo.name(), "pull-then-tell");

    let io = algo.step();
    let id = 2; // id_bits(4)
    assert_eq!(
        io,
        RoundIO {
            // request + reply + list
            messages: 3,
            // request: 1 id; reply: {3} + sender; list: {1, 2} + sender
            bits: id + 2 * id + 3 * id,
            max_message_bits: 3 * id,
            // 0 learns 3; 2 learns 0 and 1
            learned: 3,
        }
    );
    let k = algo.knowledge();
    assert!(k.knows(NodeId(0), NodeId(3)), "the pull was delivered");
    assert!(
        k.knows(NodeId(2), NodeId(0)) && k.knows(NodeId(2), NodeId(1)),
        "the list was delivered"
    );
    // The list is node 0's round-start list: the address it pulled earlier
    // in this same delivery phase is not forwarded.
    assert!(!k.knows(NodeId(2), NodeId(3)));
    assert_eq!(k.known_pairs(), 6);
    k.validate().unwrap();
}
