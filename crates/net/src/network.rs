//! The synchronous message-passing network simulator.
//!
//! Semantics:
//!
//! * Time advances in rounds. Messages sent in round `t` are delivered at
//!   the start of round `t + 1` (one-hop latency).
//! * Each message is independently lost with probability `drop_prob`.
//! * Nodes may die (churn); messages to dead nodes vanish, and dead nodes
//!   send nothing.
//! * All randomness is drawn from counter-based streams keyed by
//!   `(seed, round, node)`, so simulations are reproducible.
//!
//! Protocols interact with the network only through [`NodeCtx`]: they can
//! read their own contact list, mutate it (learning/forgetting peers), and
//! send messages — strictly local behavior, as in the paper.

use crate::message::Message;
use gossip_core::rng::stream_rng;
use gossip_graph::{ArenaGraph, DirectedGraph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// One peer's state.
#[derive(Clone, Debug)]
pub struct Peer {
    /// Contacts this peer currently knows, in ascending id order (may
    /// include dead peers until noticed — that's the staleness metric).
    pub contacts: Vec<NodeId>,
    /// Whether the peer is alive.
    pub alive: bool,
}

/// An in-flight message.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Payload.
    pub msg: Message,
}

/// Per-round traffic accounting (encoded sizes of *sent* messages; drops
/// still consume sender bandwidth).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Messages sent.
    pub messages: u64,
    /// Total encoded bytes.
    pub bytes: u64,
    /// Largest single message in bytes.
    pub max_message_bytes: u64,
    /// Messages lost to drops or dead recipients.
    pub lost: u64,
}

/// Network configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Independent per-message loss probability.
    pub drop_prob: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            drop_prob: 0.0,
            seed: 0,
        }
    }
}

/// What a protocol sees and can do on behalf of one node.
pub struct NodeCtx<'a> {
    /// The node this context belongs to.
    pub me: NodeId,
    /// The current round (for protocols with timeouts, e.g. failure
    /// detection).
    pub round: u64,
    /// The node's contact list, ascending (learning happens here).
    pub(crate) contacts: &'a mut Vec<NodeId>,
    /// This round's RNG stream for the node.
    pub rng: &'a mut SmallRng,
    outbox: &'a mut Vec<Envelope>,
}

impl NodeCtx<'_> {
    /// Sends `msg` to `to` (delivered next round, maybe lost).
    pub fn send(&mut self, to: NodeId, msg: Message) {
        self.outbox.push(Envelope {
            from: self.me,
            to,
            msg,
        });
    }

    /// The node's contacts, in ascending id order.
    pub fn contacts(&self) -> &[NodeId] {
        self.contacts
    }

    /// Learns a peer's address. Returns `true` if it was new.
    pub fn learn(&mut self, peer: NodeId) -> bool {
        peer != self.me && insert_sorted(self.contacts, peer)
    }

    /// Forgets a peer (e.g. one detected as dead).
    pub fn forget(&mut self, peer: NodeId) -> bool {
        let found = self.contacts.binary_search(&peer);
        if let Ok(at) = found {
            self.contacts.remove(at);
        }
        found.is_ok()
    }

    /// A uniformly random contact.
    pub fn random_contact(&mut self) -> Option<NodeId> {
        if self.contacts.is_empty() {
            return None;
        }
        Some(self.contacts[self.rng.random_range(0..self.contacts.len())])
    }
}

/// Inserts `v` into the ascending `row`; whether it was new.
fn insert_sorted(row: &mut Vec<NodeId>, v: NodeId) -> bool {
    let at = row.binary_search(&v);
    if let Err(at) = at {
        row.insert(at, v);
    }
    at.is_err()
}

/// A discovery protocol: a state machine driven by rounds and messages.
pub trait Protocol {
    /// Called once per round for every live node, before deliveries.
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>);

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, msg: Message);

    /// Protocol name for reports.
    fn name(&self) -> &'static str;
}

/// The simulated network.
pub struct Network {
    peers: Vec<Peer>,
    in_flight: Vec<Envelope>,
    round: u64,
    cfg: NetConfig,
    capacity: usize,
}

impl Network {
    /// Builds a network whose initial knowledge mirrors an undirected graph.
    /// `capacity` bounds the node ids that can ever exist (for churn joins);
    /// it must be at least `g.n()`.
    pub fn from_graph(g: &ArenaGraph, capacity: usize, cfg: NetConfig) -> Self {
        assert!(capacity >= g.n(), "capacity below initial size");
        let peers = g
            .nodes()
            .map(|u| Peer {
                contacts: g.neighbors(u).to_vec(),
                alive: true,
            })
            .collect();
        Network {
            peers,
            in_flight: Vec::new(),
            round: 0,
            cfg,
            capacity,
        }
    }

    /// Current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total peers ever created (alive + dead).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Number of live peers.
    pub fn alive_count(&self) -> usize {
        self.peers.iter().filter(|p| p.alive).count()
    }

    /// Read access to a peer.
    pub fn peer(&self, u: NodeId) -> &Peer {
        &self.peers[u.index()]
    }

    /// Ids of live peers.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        (0..self.peers.len())
            .filter(|&u| self.peers[u].alive)
            .map(NodeId::new)
            .collect()
    }

    /// Spawns a new peer bootstrapped with `bootstrap` contacts. Knowledge
    /// is made mutual (the joiner's hello handshake): each live bootstrap
    /// contact also learns the joiner. Without this, a pure-push network
    /// could never discover a newcomer — nobody would know its address to
    /// introduce it. Returns the new id.
    ///
    /// # Panics
    /// Panics if capacity is exhausted.
    pub fn join(&mut self, bootstrap: &[NodeId]) -> NodeId {
        assert!(
            self.peers.len() < self.capacity,
            "network capacity exhausted"
        );
        let id = NodeId::new(self.peers.len());
        let mut contacts = Vec::new();
        for &b in bootstrap {
            if b != id {
                insert_sorted(&mut contacts, b);
                if self.peers[b.index()].alive {
                    insert_sorted(&mut self.peers[b.index()].contacts, id);
                }
            }
        }
        self.peers.push(Peer {
            contacts,
            alive: true,
        });
        id
    }

    /// Kills a peer. Its state stays (dead), its in-flight messages vanish
    /// at delivery. Returns whether it was alive.
    pub fn kill(&mut self, u: NodeId) -> bool {
        let was = self.peers[u.index()].alive;
        self.peers[u.index()].alive = false;
        was
    }

    /// Runs one synchronous round of `protocol`. Order within the round:
    /// deliveries from the previous round first, then `on_round` for every
    /// live node, then loss is applied to everything sent this round.
    pub fn step<P: Protocol + ?Sized>(&mut self, protocol: &mut P) -> Traffic {
        let round = self.round;
        let seed = self.cfg.seed;
        let mut outbox: Vec<Envelope> = Vec::new();

        // Deliveries (messages queued last round; loss already applied).
        let deliveries = std::mem::take(&mut self.in_flight);
        for env in deliveries {
            let to = env.to.index();
            if !self.peers[to].alive {
                continue;
            }
            // Split-borrow the recipient's contacts out of the arena.
            let mut contacts = std::mem::take(&mut self.peers[to].contacts);
            let mut rng = stream_rng(seed, round, (env.to.0 as u64) | (1 << 40));
            let mut ctx = NodeCtx {
                me: env.to,
                round,
                contacts: &mut contacts,
                rng: &mut rng,
                outbox: &mut outbox,
            };
            protocol.on_message(&mut ctx, env.from, env.msg);
            self.peers[to].contacts = contacts;
        }

        // Round actions.
        for u in 0..self.peers.len() {
            if !self.peers[u].alive {
                continue;
            }
            let mut contacts = std::mem::take(&mut self.peers[u].contacts);
            let mut rng = stream_rng(seed, round, u as u64);
            let mut ctx = NodeCtx {
                me: NodeId::new(u),
                round,
                contacts: &mut contacts,
                rng: &mut rng,
                outbox: &mut outbox,
            };
            protocol.on_round(&mut ctx);
            self.peers[u].contacts = contacts;
        }

        // Accounting + loss.
        let mut traffic = Traffic::default();
        let mut drop_rng = stream_rng(seed, round, u64::MAX - 1);
        for env in outbox {
            let bytes = env.msg.wire_len() as u64;
            traffic.messages += 1;
            traffic.bytes += bytes;
            traffic.max_message_bytes = traffic.max_message_bytes.max(bytes);
            let lost = self.cfg.drop_prob > 0.0 && drop_rng.random_bool(self.cfg.drop_prob);
            if lost || !self.peers[env.to.index()].alive {
                traffic.lost += 1;
            } else {
                self.in_flight.push(env);
            }
        }
        self.round += 1;
        traffic
    }

    /// Fraction of ordered live pairs `(u, v)` where `u` knows `v`
    /// (1.0 = full discovery among the living).
    pub fn coverage(&self) -> f64 {
        let alive = self.alive_ids();
        let n = alive.len();
        if n <= 1 {
            return 1.0;
        }
        let mut known = 0u64;
        for &u in &alive {
            let c = &self.peers[u.index()].contacts;
            known += alive
                .iter()
                .filter(|&&v| v != u && c.binary_search(&v).is_ok())
                .count() as u64;
        }
        known as f64 / (n as u64 * (n as u64 - 1)) as f64
    }

    /// Fraction of contact entries (across live peers) that point to dead
    /// peers — how much garbage churn has left behind.
    pub fn staleness(&self) -> f64 {
        let mut total = 0u64;
        let mut stale = 0u64;
        for p in self.peers.iter().filter(|p| p.alive) {
            for v in &p.contacts {
                total += 1;
                stale += (!self.peers[v.index()].alive) as u64;
            }
        }
        if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
        }
    }

    /// Snapshot of the live knowledge graph (arc `u -> v` iff `u` knows `v`),
    /// over all peer slots (dead peers appear isolated).
    pub fn knowledge_graph(&self) -> DirectedGraph {
        let mut g = DirectedGraph::new(self.peers.len());
        for (u, p) in self.peers.iter().enumerate() {
            if !p.alive {
                continue;
            }
            for &v in &p.contacts {
                if self.peers[v.index()].alive {
                    g.add_arc(NodeId::new(u), v);
                }
            }
        }
        g
    }

    /// Runs `protocol` until coverage reaches `target` or the budget runs
    /// out; returns `(rounds, reached, accumulated traffic)`.
    pub fn run_until_coverage<P: Protocol + ?Sized>(
        &mut self,
        protocol: &mut P,
        target: f64,
        max_rounds: u64,
    ) -> (u64, bool, Traffic) {
        let mut acc = Traffic::default();
        let start = self.round;
        while self.round - start < max_rounds {
            if self.coverage() >= target {
                return (self.round - start, true, acc);
            }
            let t = self.step(protocol);
            acc.messages += t.messages;
            acc.bytes += t.bytes;
            acc.lost += t.lost;
            acc.max_message_bytes = acc.max_message_bytes.max(t.max_message_bytes);
        }
        (self.round - start, self.coverage() >= target, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    struct NoopProtocol;
    impl Protocol for NoopProtocol {
        fn on_round(&mut self, _ctx: &mut NodeCtx<'_>) {}
        fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _from: NodeId, _msg: Message) {}
        fn name(&self) -> &'static str {
            "noop"
        }
    }

    /// Every node pings contact 0 each round (for traffic/drop tests).
    struct PingProtocol;
    impl Protocol for PingProtocol {
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>) {
            if let Some(v) = ctx.random_contact() {
                ctx.send(v, Message::Announce);
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, _msg: Message) {
            ctx.learn(from);
        }
        fn name(&self) -> &'static str {
            "ping"
        }
    }

    #[test]
    fn initial_coverage_matches_graph() {
        let g = generators::path(4);
        let net = Network::from_graph(&g, 8, NetConfig::default());
        // Path 0-1-2-3: 6 known ordered pairs of 12.
        assert!((net.coverage() - 0.5).abs() < 1e-12);
        assert_eq!(net.alive_count(), 4);
        assert_eq!(net.staleness(), 0.0);
    }

    #[test]
    fn complete_graph_coverage_is_one() {
        let g = generators::complete(5);
        let net = Network::from_graph(&g, 5, NetConfig::default());
        assert_eq!(net.coverage(), 1.0);
    }

    #[test]
    fn one_round_latency() {
        let g = generators::path(3);
        let mut net = Network::from_graph(&g, 3, NetConfig::default());
        let mut p = PingProtocol;
        let t = net.step(&mut p);
        assert!(t.messages >= 1);
        // Announces sent in round 0 are delivered during round 1's step.
        let _ = net.step(&mut p);
        assert_eq!(net.round(), 2);
    }

    #[test]
    fn drops_lose_everything_at_p1() {
        let g = generators::complete(4);
        let mut net = Network::from_graph(
            &g,
            4,
            NetConfig {
                drop_prob: 1.0,
                seed: 3,
            },
        );
        let mut p = PingProtocol;
        let t = net.step(&mut p);
        assert_eq!(t.lost, t.messages);
        assert!(net.in_flight.is_empty());
    }

    #[test]
    fn churn_join_and_kill() {
        let g = generators::complete(3);
        let mut net = Network::from_graph(&g, 10, NetConfig::default());
        let id = net.join(&[NodeId(0), NodeId(1)]);
        assert_eq!(id, NodeId(3));
        assert_eq!(net.alive_count(), 4);
        // The joiner knows 2 of 3 others; others don't know it yet.
        assert!(net.coverage() < 1.0);
        assert!(net.kill(NodeId(0)));
        assert!(!net.kill(NodeId(0)));
        assert_eq!(net.alive_count(), 3);
        // Peers 1, 2 and the joiner still hold 0 in contacts -> stale.
        assert!(net.staleness() > 0.0);
    }

    #[test]
    fn dead_peers_receive_nothing() {
        let g = generators::complete(3);
        let mut net = Network::from_graph(&g, 3, NetConfig::default());
        net.kill(NodeId(2));
        let mut p = PingProtocol;
        let t1 = net.step(&mut p);
        // Anything addressed to 2 counts lost at send time.
        let _ = net.step(&mut p);
        assert!(t1.messages > 0);
    }

    #[test]
    fn knowledge_graph_snapshot() {
        let g = generators::path(3);
        let net = Network::from_graph(&g, 3, NetConfig::default());
        let kg = net.knowledge_graph();
        assert_eq!(kg.arc_count(), 4); // symmetric path knowledge
        assert!(kg.has_arc(NodeId(0), NodeId(1)));
        assert!(kg.has_arc(NodeId(1), NodeId(0)));
    }

    #[test]
    fn noop_makes_no_progress() {
        let g = generators::path(5);
        let mut net = Network::from_graph(&g, 5, NetConfig::default());
        let before = net.coverage();
        let mut p = NoopProtocol;
        for _ in 0..10 {
            let t = net.step(&mut p);
            assert_eq!(t.messages, 0);
        }
        assert_eq!(net.coverage(), before);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn join_respects_capacity() {
        let g = generators::path(3);
        let mut net = Network::from_graph(&g, 3, NetConfig::default());
        let _ = net.join(&[]);
    }
}
