//! Property tests for the wire simulator: encoding, accounting, and
//! protocol-level invariants on random inputs.

use gossip_net::{Message, NetConfig, Network, Protocol, PullProtocol, PushProtocol};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Message encoding roundtrips for arbitrary payloads, and the length
    /// method never lies about the wire size.
    #[test]
    fn message_roundtrip_arbitrary(peer in any::<u32>(), peers in proptest::collection::vec(any::<u32>(), 0..64)) {
        use gossip_graph::NodeId;
        let msgs = vec![
            Message::Introduce { peer: NodeId(peer) },
            Message::PullRequest,
            Message::PullReply { peer: NodeId(peer) },
            Message::Announce,
            Message::Ping,
            Message::Pong,
            Message::FullList { peers: peers.into_iter().map(NodeId).collect() },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            prop_assert_eq!(bytes.len(), msg.wire_len());
            prop_assert_eq!(Message::decode(&bytes), Some(msg));
        }
    }

    /// Decoding random junk never panics (it may or may not parse).
    #[test]
    fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Message::decode(&data);
    }

    /// Traffic accounting: lost <= messages, bytes >= messages (every
    /// message has at least 1 byte), regardless of drop rate and protocol.
    #[test]
    fn traffic_accounting_sane(seed in any::<u64>(), drop in 0.0f64..1.0, n in 3usize..20) {
        let g = gossip_graph::generators::cycle(n.max(3));
        let mut net = Network::from_graph(&g, NetConfig { drop_prob: drop, seed });
        let mut push = PushProtocol;
        let mut pull = PullProtocol;
        for i in 0..20 {
            let proto: &mut dyn Protocol = if i % 2 == 0 { &mut push } else { &mut pull };
            let t = net.step(proto);
            prop_assert!(t.lost <= t.messages);
            prop_assert!(t.bytes >= t.messages);
            prop_assert!(t.max_message_bytes <= t.bytes.max(1));
        }
    }

    /// Coverage is monotone for loss-free push (knowledge only grows and
    /// membership is fixed).
    #[test]
    fn coverage_monotone_without_loss(seed in any::<u64>(), n in 3usize..16) {
        let g = gossip_graph::generators::star(n.max(3));
        let mut net = Network::from_graph(&g, NetConfig { drop_prob: 0.0, seed });
        let mut proto = PushProtocol;
        let mut last = net.coverage();
        for _ in 0..60 {
            net.step(&mut proto);
            let c = net.coverage();
            prop_assert!(c >= last - 1e-12, "coverage dropped {last} -> {c}");
            last = c;
        }
    }

    /// Knowledge stays symmetric under loss-free push on a symmetric start:
    /// both endpoints of every introduction learn each other in the same
    /// delivery round.
    #[test]
    fn push_symmetry_without_loss(seed in any::<u64>(), n in 3usize..14) {
        let n = n.max(3);
        let g = gossip_graph::generators::cycle(n);
        let mut net = Network::from_graph(&g, NetConfig { drop_prob: 0.0, seed });
        let mut proto = PushProtocol;
        for _ in 0..80 {
            net.step(&mut proto);
        }
        // One more settle round so both introductions of the last round land.
        net.step(&mut proto);
        let kg = net.knowledge_graph();
        for a in kg.arcs() {
            prop_assert!(
                kg.has_arc(a.to, a.from),
                "asymmetric knowledge {:?} -> {:?}",
                a.from,
                a.to
            );
        }
    }
}
