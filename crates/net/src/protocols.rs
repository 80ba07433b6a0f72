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
    Effects, KernelMsg, LocalView, NodeState, ProtocolKernel, PushKernel, RngChooser,
};
use gossip_graph::NodeId;

/// Push discovery on the wire: each round a node draws two contacts `v, w`
/// i.i.d. and, when distinct, mails `Introduce{w}` to `v` and
/// `Introduce{v}` to `w` — two 5-byte messages, independent of `n`.
///
/// The decision logic is [`PushKernel`] — the same state machine the batch
/// engines run — driven here through a [`LocalView`] over the node's
/// contact set. This adapter only maps kernel [`Effects`] onto the wire:
/// each `connect(v, w)` becomes the introduction pair, each learned
/// contact an [`NodeCtx::learn`] call. Draw-for-draw identical to the
/// pre-kernel implementation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushProtocol;

impl Protocol for PushProtocol {
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>) {
        let mut out = Effects::default();
        PushKernel.on_round(
            &mut NodeState::Stateless,
            &LocalView {
                me: ctx.me,
                contacts: ctx.contacts,
            },
            &mut RngChooser(ctx.rng),
            &mut out,
        );
        for &(v, w) in out.connects.as_slice() {
            ctx.send(v, Message::Introduce { peer: w });
            ctx.send(w, Message::Introduce { peer: v });
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, msg: Message) {
        if let Message::Introduce { peer } = msg {
            let mut out = Effects::default();
            PushKernel.on_message(
                &mut NodeState::Stateless,
                &LocalView {
                    me: ctx.me,
                    contacts: ctx.contacts,
                },
                &mut RngChooser(ctx.rng),
                from,
                &KernelMsg::Introduce { peer },
                &mut out,
            );
            for v in out.learns {
                ctx.learn(v);
            }
        }
    }

    fn name(&self) -> &'static str {
        "push-protocol"
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

    fn name(&self) -> &'static str {
        "pull-protocol"
    }
}

/// Name Dropper on the wire: each round a node ships its **entire** contact
/// list to one random contact. Fast in rounds, `Θ(n)` bytes per message at
/// the end — the bandwidth profile the paper contrasts against.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameDropperProtocol;

impl Protocol for NameDropperProtocol {
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(v) = ctx.random_contact() {
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

    fn name(&self) -> &'static str {
        "name-dropper-protocol"
    }
}

/// Push discovery with **failure detection** (a §6 "extension" the paper
/// leaves open, SWIM-flavored): alongside introductions, each node
/// periodically pings a random contact and evicts contacts that miss the
/// reply deadline. This turns churn-induced staleness from permanent garbage
/// into a decaying quantity, at the cost of 1-byte probe traffic and the
/// risk of evicting live peers when message loss is high.
#[derive(Clone, Debug)]
pub struct HeartbeatPushProtocol {
    /// Probe a random contact every `ping_every` rounds (per node).
    pub ping_every: u64,
    /// Evict a contact whose Pong hasn't arrived after this many rounds.
    pub timeout: u64,
    /// Outstanding probes per node: `(peer, sent_round)`.
    pending: Vec<Vec<(NodeId, u64)>>,
}

impl HeartbeatPushProtocol {
    /// Creates the protocol for up to `capacity` nodes.
    ///
    /// # Panics
    /// Panics if `timeout < 2` (a Pong takes two rounds to come back).
    pub fn new(capacity: usize, ping_every: u64, timeout: u64) -> Self {
        assert!(
            timeout >= 2,
            "a round-trip takes 2 rounds; timeout must be >= 2"
        );
        assert!(ping_every >= 1);
        HeartbeatPushProtocol {
            ping_every,
            timeout,
            pending: vec![Vec::new(); capacity],
        }
    }

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
        let timeout = self.timeout;
        let mut evict: Vec<NodeId> = Vec::new();
        self.slot(ctx.me).retain(|&(peer, sent)| {
            if now.saturating_sub(sent) > timeout {
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
        if let (Some(v), Some(w)) = (ctx.random_contact(), ctx.random_contact()) {
            if v != w {
                ctx.send(v, Message::Introduce { peer: w });
                ctx.send(w, Message::Introduce { peer: v });
            }
        }

        // Periodic probe.
        if ctx.round.is_multiple_of(self.ping_every) {
            if let Some(p) = ctx.random_contact() {
                let already = self.slot(ctx.me).iter().any(|&(peer, _)| peer == p);
                if !already {
                    ctx.send(p, Message::Ping);
                    let round = ctx.round;
                    self.slot(ctx.me).push((p, round));
                }
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

    fn name(&self) -> &'static str {
        "heartbeat-push-protocol"
    }
}

/// The wire-protocol registry: constructs the message-passing protocol
/// registered under a `gossip-core` registry name (`push`, `pull`,
/// `name-dropper`). The single name → protocol site for the simulator —
/// experiments and bins resolve through it instead of hand-matching. The
/// error lists every registered name.
pub fn wire_protocol(name: &str) -> Result<Box<dyn Protocol>, String> {
    const NAMES: [&str; 3] = ["push", "pull", "name-dropper"];
    match name {
        "push" => Ok(Box::new(PushProtocol)),
        "pull" => Ok(Box::new(PullProtocol)),
        "name-dropper" => Ok(Box::new(NameDropperProtocol)),
        other => Err(format!(
            "unknown wire protocol {other:?}; registered wire protocols: {}",
            NAMES.join(", ")
        )),
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
            12,
            NetConfig {
                drop_prob: 0.0,
                seed: 1,
            },
        );
        let (rounds, done, traffic) = net.run_until_coverage(&mut PushProtocol, 1.0, 100_000);
        assert!(done, "push protocol stalled after {rounds} rounds");
        // Constant-size messages only.
        assert_eq!(traffic.max_message_bytes, 5);
    }

    #[test]
    fn pull_protocol_reaches_full_coverage() {
        let g = generators::path(10);
        let mut net = Network::from_graph(
            &g,
            10,
            NetConfig {
                drop_prob: 0.0,
                seed: 2,
            },
        );
        let (rounds, done, traffic) = net.run_until_coverage(&mut PullProtocol, 1.0, 100_000);
        assert!(done, "pull protocol stalled after {rounds} rounds");
        assert_eq!(traffic.max_message_bytes, 5);
    }

    #[test]
    fn name_dropper_protocol_fast_but_fat() {
        let g = generators::star(16);
        let mut net = Network::from_graph(
            &g,
            16,
            NetConfig {
                drop_prob: 0.0,
                seed: 3,
            },
        );
        let (rounds, done, traffic) = net.run_until_coverage(&mut NameDropperProtocol, 1.0, 10_000);
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
            10,
            NetConfig {
                drop_prob: 0.3,
                seed: 4,
            },
        );
        let (_, done, traffic) = net.run_until_coverage(&mut PushProtocol, 1.0, 200_000);
        assert!(done, "push under 30% loss must still converge");
        assert!(traffic.lost > 0);
    }

    #[test]
    fn protocols_are_deterministic() {
        let g = generators::cycle(8);
        let run = |seed| {
            let mut net = Network::from_graph(
                &g,
                8,
                NetConfig {
                    drop_prob: 0.1,
                    seed,
                },
            );
            net.run_until_coverage(&mut PullProtocol, 1.0, 100_000)
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
            12,
            NetConfig {
                drop_prob: 0.0,
                seed: 6,
            },
        );
        let mut proto = HeartbeatPushProtocol::new(12, 4, 6);
        let (rounds, done, _) = net.run_until_coverage(&mut proto, 1.0, 100_000);
        assert!(done, "heartbeat-push stalled after {rounds} rounds");
    }

    #[test]
    fn heartbeat_evicts_dead_contacts() {
        let g = generators::complete(10);
        let mut net = Network::from_graph(
            &g,
            10,
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
        let mut proto = HeartbeatPushProtocol::new(10, 1, 4);
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
                256,
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
        let heartbeat = run(Box::new(HeartbeatPushProtocol::new(256, 1, 4)));
        // Under sustained churn staleness is a steady state (eviction races
        // re-introduction), not zero — but it must sit clearly below the
        // evict-nothing baseline.
        assert!(
            heartbeat < plain * 0.75,
            "heartbeat staleness {heartbeat} should be well below plain push {plain}"
        );
    }

    #[test]
    #[should_panic(expected = "timeout")]
    fn heartbeat_rejects_impossible_timeout() {
        let _ = HeartbeatPushProtocol::new(4, 1, 1);
    }

    #[test]
    fn wire_registry_resolves_and_errors() {
        for name in ["push", "pull", "name-dropper"] {
            assert!(wire_protocol(name).is_ok(), "{name} missing from registry");
        }
        let err = wire_protocol("hybrid").map(|_| ()).unwrap_err();
        assert!(
            err.contains("push") && err.contains("name-dropper"),
            "{err}"
        );
    }

    #[test]
    fn pull_announce_makes_knowledge_mutual() {
        let g = generators::path(3);
        let mut net = Network::from_graph(&g, 3, NetConfig::default());
        let mut p = PullProtocol;
        for _ in 0..50 {
            net.step(&mut p);
        }
        // 0 and 2 discovered each other through 1 — both directions.
        assert!(net.peer(NodeId(0)).contacts.contains(&NodeId(2)));
        assert!(net.peer(NodeId(2)).contacts.contains(&NodeId(0)));
    }
}
