//! The paper's processes as real message-passing protocols, plus Name
//! Dropper for bandwidth contrast.
//!
//! These are the deployable renditions of the abstract rules in
//! `gossip-core`: the same random choices, but played out over messages with
//! one-round latency and possible loss. With `drop_prob = 0` the knowledge
//! evolution matches the abstract processes up to the pipeline delay
//! (an introduction sent in round `t` lands in round `t + 1`).

use crate::message::Message;
use crate::network::{NodeCtx, Protocol};
use gossip_core::{
    Effects, LocalView, NameDropperKernel, NodeState, ProtocolKernel, PushKernel, RngChooser,
};
use gossip_graph::NodeId;

/// Runs one stateless kernel's round for the node behind `ctx`: through a
/// [`LocalView`] over its contact set and a [`RngChooser`] on its stream.
/// Returns the kernel's decisions for the caller to put on the wire.
fn kernel_round(kernel: impl ProtocolKernel, ctx: &mut NodeCtx<'_>) -> Effects {
    let mut out = Effects::default();
    kernel.on_round(
        &mut NodeState::Stateless,
        &LocalView {
            me: ctx.me,
            contacts: ctx.contacts,
        },
        &mut RngChooser(ctx.rng),
        &mut out,
    );
    out
}

/// Push discovery on the wire: each round a node draws two contacts `v, w`
/// i.i.d. and, when distinct, mails `Introduce{w}` to `v` and
/// `Introduce{v}` to `w` — two 5-byte messages, independent of `n`.
///
/// The decision logic is [`PushKernel`] — the same state machine the batch
/// engines run — driven here through a [`LocalView`] over the node's
/// contact set. This adapter only maps kernel [`Effects`] onto the wire:
/// each `connect(v, w)` becomes the introduction pair. A delivered
/// `Introduce{peer}` is one [`NodeCtx::learn`] call and draws nothing.
/// Draw-for-draw identical to the pre-kernel implementation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushProtocol;

impl Protocol for PushProtocol {
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>) {
        for &(v, w) in kernel_round(PushKernel, ctx).connects.as_slice() {
            ctx.send(v, Message::Introduce { peer: w });
            ctx.send(w, Message::Introduce { peer: v });
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _from: NodeId, msg: Message) {
        if let Message::Introduce { peer } = msg {
            ctx.learn(peer);
        }
    }
}

/// Pull discovery on the wire: `u` asks a random contact `v` for one of
/// `v`'s contacts; `v` replies with a uniform pick `w`; `u` learns `w` and
/// announces itself to `w` so knowledge stays mutual (the undirected model).
/// Three constant-size messages per completed exchange.
#[derive(Clone, Copy, Debug, Default)]
pub struct PullProtocol;

impl Protocol for PullProtocol {
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(v) = ctx.random_contact() {
            ctx.send(v, Message::PullRequest);
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, msg: Message) {
        match msg {
            Message::PullRequest => {
                if let Some(w) = ctx.random_contact() {
                    ctx.send(from, Message::PullReply { peer: w });
                }
            }
            // Deliberately not a match guard: `learn` mutates state.
            #[allow(clippy::collapsible_match)]
            Message::PullReply { peer } => {
                if peer != ctx.me && ctx.learn(peer) {
                    ctx.send(peer, Message::Announce);
                }
            }
            Message::Announce => {
                ctx.learn(from);
            }
            _ => {}
        }
    }
}

/// Name Dropper on the wire: each round a node ships its **entire** contact
/// list to one random contact. Fast in rounds, `Θ(n)` bytes per message at
/// the end — the bandwidth profile the paper contrasts against.
///
/// The decision logic is [`NameDropperKernel`], the kernel the model
/// checker proves, driven like [`PushProtocol`]'s: each
/// [`Share::KnownList`](gossip_core::Share::KnownList) it decides becomes
/// a `FullList` message.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameDropperProtocol;

impl Protocol for NameDropperProtocol {
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>) {
        // The kernel's one share is `Share::KnownList`: the whole list.
        for (v, _) in kernel_round(NameDropperKernel, ctx).shares {
            let peers = ctx.contacts().to_vec();
            ctx.send(v, Message::FullList { peers });
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, msg: Message) {
        if let Message::FullList { peers } = msg {
            for p in peers {
                ctx.learn(p);
            }
            ctx.learn(from);
        }
    }
}

/// Rounds a probe may go unanswered before its contact is evicted.
const TIMEOUT: u64 = 4;
// A Pong takes two rounds to come back; a shorter deadline evicts live peers.
const _: () = assert!(TIMEOUT >= 2);

/// Push discovery with **failure detection** (a §6 "extension" the paper
/// leaves open, SWIM-flavored): alongside introductions, every node pings a
/// random contact each round and evicts a contact whose Pong has not come
/// back within 4 rounds. This turns churn-induced staleness from permanent
/// garbage into a decaying quantity, at the cost of 1-byte probe traffic and
/// the risk of evicting live peers when message loss is high.
///
/// `default()` starts with no probe outstanding; the per-node probe table
/// grows as node ids appear, churn joins included.
#[derive(Clone, Debug, Default)]
pub struct HeartbeatPushProtocol {
    /// Outstanding probes per node: `(peer, sent_round)`.
    pending: Vec<Vec<(NodeId, u64)>>,
}

impl HeartbeatPushProtocol {
    fn slot(&mut self, me: NodeId) -> &mut Vec<(NodeId, u64)> {
        if me.index() >= self.pending.len() {
            self.pending.resize(me.index() + 1, Vec::new());
        }
        &mut self.pending[me.index()]
    }
}

impl Protocol for HeartbeatPushProtocol {
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>) {
        // Expire overdue probes: evict the silent contact.
        let now = ctx.round;
        let mut evict: Vec<NodeId> = Vec::new();
        self.slot(ctx.me).retain(|&(peer, sent)| {
            if now.saturating_sub(sent) > TIMEOUT {
                evict.push(peer);
                false
            } else {
                true
            }
        });
        for peer in evict {
            ctx.forget(peer);
        }

        // The push step proper.
        PushProtocol.on_round(ctx);

        // This round's probe.
        if let Some(p) = ctx.random_contact() {
            let already = self.slot(ctx.me).iter().any(|&(peer, _)| peer == p);
            if !already {
                ctx.send(p, Message::Ping);
                self.slot(ctx.me).push((p, now));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, msg: Message) {
        match msg {
            Message::Introduce { peer } => {
                ctx.learn(peer);
            }
            Message::Ping => {
                ctx.learn(from);
                ctx.send(from, Message::Pong);
            }
            Message::Pong => {
                self.slot(ctx.me).retain(|&(peer, _)| peer != from);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetConfig, Network};
    use gossip_graph::generators;

    #[test]
    fn push_protocol_reaches_full_coverage() {
        let g = generators::star(12);
        let mut net = Network::from_graph(
            &g,
            NetConfig {
                drop_prob: 0.0,
                seed: 1,
            },
        );
        let (rounds, done, traffic) = net.run_until_coverage(&mut PushProtocol, 100_000);
        assert!(done, "push protocol stalled after {rounds} rounds");
        // Constant-size messages only.
        assert_eq!(traffic.max_message_bytes, 5);
    }

    #[test]
    fn pull_protocol_reaches_full_coverage() {
        let g = generators::path(10);
        let mut net = Network::from_graph(
            &g,
            NetConfig {
                drop_prob: 0.0,
                seed: 2,
            },
        );
        let (rounds, done, traffic) = net.run_until_coverage(&mut PullProtocol, 100_000);
        assert!(done, "pull protocol stalled after {rounds} rounds");
        assert_eq!(traffic.max_message_bytes, 5);
    }

    #[test]
    fn name_dropper_protocol_fast_but_fat() {
        let g = generators::star(16);
        let mut net = Network::from_graph(
            &g,
            NetConfig {
                drop_prob: 0.0,
                seed: 3,
            },
        );
        let (rounds, done, traffic) = net.run_until_coverage(&mut NameDropperProtocol, 10_000);
        assert!(done);
        assert!(rounds < 60, "ND should be fast: {rounds}");
        // Somebody eventually ships a near-full list: >= half the directory.
        assert!(traffic.max_message_bytes >= 5 + 4 * 8);
    }

    #[test]
    fn push_survives_message_loss() {
        let g = generators::star(10);
        let mut net = Network::from_graph(
            &g,
            NetConfig {
                drop_prob: 0.3,
                seed: 4,
            },
        );
        let (_, done, traffic) = net.run_until_coverage(&mut PushProtocol, 200_000);
        assert!(done, "push under 30% loss must still converge");
        assert!(traffic.lost > 0);
    }

    #[test]
    fn protocols_are_deterministic() {
        let g = generators::cycle(8);
        let run = |seed| {
            let mut net = Network::from_graph(
                &g,
                NetConfig {
                    drop_prob: 0.1,
                    seed,
                },
            );
            net.run_until_coverage(&mut PullProtocol, 100_000)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.0, b.0);
        assert_eq!(a.2, b.2);
        let c = run(8);
        assert!(a.0 != c.0 || a.2 != c.2, "different seeds should differ");
    }

    #[test]
    fn heartbeat_still_discovers() {
        let g = generators::star(12);
        let mut net = Network::from_graph(
            &g,
            NetConfig {
                drop_prob: 0.0,
                seed: 6,
            },
        );
        let mut proto = HeartbeatPushProtocol::default();
        let (rounds, done, _) = net.run_until_coverage(&mut proto, 100_000);
        assert!(done, "heartbeat-push stalled after {rounds} rounds");
    }

    #[test]
    fn heartbeat_evicts_dead_contacts() {
        let g = generators::complete(10);
        let mut net = Network::from_graph(
            &g,
            NetConfig {
                drop_prob: 0.0,
                seed: 7,
            },
        );
        // Kill three peers; everyone still lists them.
        for dead in [2u32, 5, 8] {
            net.kill(gossip_graph::NodeId(dead));
        }
        assert!(net.staleness() > 0.3);
        let mut proto = HeartbeatPushProtocol::default();
        // Dead contacts can be *re-introduced* by peers that haven't purged
        // them yet, so staleness decays epidemically; run until extinction.
        let mut rounds = 0;
        while net.staleness() > 0.0 {
            net.step(&mut proto);
            rounds += 1;
            assert!(rounds < 5_000, "stale contacts never died out");
        }
        // The living still know each other.
        assert_eq!(net.coverage(), 1.0);
    }

    #[test]
    fn heartbeat_handles_churn_better_than_plain_push() {
        let g = generators::complete(16);
        let churn = crate::churn::ChurnModel {
            join_prob: 0.1,
            leave_prob: 0.1,
            bootstrap_contacts: 3,
            seed: 99,
        };
        let run = |mut proto: Box<dyn crate::network::Protocol>| {
            let mut net = Network::from_graph(
                &g,
                NetConfig {
                    drop_prob: 0.0,
                    seed: 8,
                },
            );
            for round in 0..600 {
                churn.apply(&mut net, round);
                net.step(proto.as_mut());
            }
            net.staleness()
        };
        let plain = run(Box::new(PushProtocol));
        let heartbeat = run(Box::<HeartbeatPushProtocol>::default());
        // Under sustained churn staleness is a steady state (eviction races
        // re-introduction), not zero — but it must sit clearly below the
        // evict-nothing baseline.
        assert!(
            heartbeat < plain * 0.75,
            "heartbeat staleness {heartbeat} should be well below plain push {plain}"
        );
    }

    #[test]
    fn pull_announce_makes_knowledge_mutual() {
        let g = generators::path(3);
        let mut net = Network::from_graph(&g, NetConfig::default());
        let mut p = PullProtocol;
        for _ in 0..50 {
            net.step(&mut p);
        }
        // 0 and 2 discovered each other through 1 — both directions.
        assert!(net.peer(NodeId(0)).contacts.contains(&NodeId(2)));
        assert!(net.peer(NodeId(2)).contacts.contains(&NodeId(0)));
    }
}
