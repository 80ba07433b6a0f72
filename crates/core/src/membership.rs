//! Dynamic membership: join/leave events applied between rounds.
//!
//! The paper's setting is a *dynamic* network — nodes arrive and depart
//! while discovery runs — but the engines historically ran static node
//! sets, leaving churn to the small-n message simulator in `gossip-net`.
//! A [`MembershipPlan`] closes that gap: it is a deterministic, pre-sorted
//! schedule of [`MembershipEvent`]s that an engine applies to its graph at
//! the top of each round's step, **before** the propose phase. Because the
//! plan is data (not callbacks) and application is part of the round
//! quantum, every engine variant — the batch [`Engine`](crate::Engine), the sharded
//! engine in `gossip-shard`, and the served path in `gossip-serve` (which
//! just drives an engine through the listener loop) — sees the identical
//! event stream at the identical round boundaries, and listeners observe
//! the same [`RoundEvent`](crate::listener::RoundEvent) trajectory on all
//! three paths.
//!
//! ## Round semantics
//!
//! An event scheduled at round `r` is applied before the propose phase of
//! round `r`, using the engine's 0-based pre-increment round counter: an
//! event at round 0 mutates the start graph before the very first
//! proposal is drawn, and the [`RoundEvent`](crate::listener::RoundEvent)
//! numbered `r + 1` is the first
//! to show its effect. Both synchronous engines use the same counter, so
//! sharded and sequential runs under the same plan stay bit-identical.
//!
//! ## Departure semantics
//!
//! A *leave* removes every incident edge and retires the node's row
//! ([`GossipGraph::remove_member`]); the node id stays addressable. The
//! propose phase still iterates all ids, but every kernel and rule guards
//! the empty-contacts case before drawing from its RNG stream, so a
//! departed node proposes nothing and — because per-node streams are
//! counter-based — perturbs nobody else's draws. Nodes only propose
//! contacts they can see in rows, and a departed node appears in no row,
//! so nobody proposes an edge to it either: departure is complete after
//! one round boundary, with no tombstone checks on the hot path. A *join*
//! re-bootstraps the id with edges to its contact list
//! ([`GossipGraph::admit_member`]).

use crate::process::GossipGraph;
use crate::rng::stream_rng;
use gossip_graph::NodeId;
use rand::Rng;

/// One lifecycle event in a [`MembershipPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembershipEvent {
    /// Node (re-)enters with bootstrap edges to `contacts`.
    Join {
        /// The joining node.
        node: NodeId,
        /// Bootstrap contacts (edges `node — c` are added for each).
        contacts: Vec<NodeId>,
    },
    /// Node departs: all incident edges are removed and its row retired.
    Leave {
        /// The departing node.
        node: NodeId,
    },
}

impl MembershipEvent {
    /// The node the event is about.
    pub fn node(&self) -> NodeId {
        match self {
            MembershipEvent::Join { node, .. } | MembershipEvent::Leave { node } => *node,
        }
    }
}

/// Cumulative effect of applied membership events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MembershipStats {
    /// Join events applied.
    pub joins: u64,
    /// Leave events applied.
    pub leaves: u64,
    /// Bootstrap edges actually added by joins.
    pub edges_added: u64,
    /// Incident edges removed by leaves.
    pub edges_removed: u64,
}

impl MembershipStats {
    fn absorb(&mut self, delta: MembershipStats) {
        self.joins += delta.joins;
        self.leaves += delta.leaves;
        self.edges_added += delta.edges_added;
        self.edges_removed += delta.edges_removed;
    }
}

/// Deterministic churn-burst schedule parameters for
/// [`MembershipPlan::bursts`].
///
/// Every `period` rounds starting at `first_round`, `nodes_per_burst`
/// distinct live nodes depart together; each departed node rejoins
/// `rejoin_after` rounds later with `bootstrap_contacts` edges to nodes
/// live at rejoin time. All draws come from a counter-based stream keyed
/// by `seed`, so the same config always yields the same plan — engines
/// replay it, they never draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnBursts {
    /// Node-id domain (`0..n`).
    pub n: usize,
    /// Nodes departing per burst.
    pub nodes_per_burst: usize,
    /// Number of bursts.
    pub bursts: usize,
    /// Round of the first burst.
    pub first_round: u64,
    /// Rounds between burst starts.
    pub period: u64,
    /// Rounds a departed node stays away before rejoining.
    pub rejoin_after: u64,
    /// Bootstrap edges per rejoining node.
    pub bootstrap_contacts: usize,
    /// Seed for the generator's counter-based stream.
    pub seed: u64,
}

/// A pre-sorted, replayable schedule of join/leave events.
///
/// Built once (e.g. by [`MembershipPlan::bursts`]), then installed into an
/// engine via [`EngineBuilder::membership`](crate::EngineBuilder::membership).
/// The engine calls [`MembershipPlan::apply_due`] with its pre-increment
/// round counter at the top of every step; the plan advances a cursor over
/// its sorted event list, so each event fires exactly once.
#[derive(Clone, Debug)]
pub struct MembershipPlan {
    /// `(round, event)` pairs, stably sorted by round.
    events: Vec<(u64, MembershipEvent)>,
    cursor: usize,
    stats: MembershipStats,
}

impl MembershipPlan {
    /// Builds a plan from `(round, event)` pairs. Events are stably sorted
    /// by round, so same-round events apply in the order given.
    pub fn new(mut events: Vec<(u64, MembershipEvent)>) -> Self {
        events.sort_by_key(|&(r, _)| r);
        MembershipPlan {
            events,
            cursor: 0,
            stats: MembershipStats::default(),
        }
    }

    /// The sorted `(round, event)` schedule.
    pub fn events(&self) -> &[(u64, MembershipEvent)] {
        &self.events
    }

    /// Total number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events applied so far.
    pub fn applied(&self) -> usize {
        self.cursor
    }

    /// The round of the last scheduled event, if any.
    pub fn last_round(&self) -> Option<u64> {
        self.events.last().map(|&(r, _)| r)
    }

    /// Cumulative stats over every event applied so far.
    pub fn stats(&self) -> MembershipStats {
        self.stats
    }

    /// Rewinds the plan so it can drive a fresh run.
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.stats = MembershipStats::default();
    }

    /// Applies every not-yet-applied event scheduled at or before `round`
    /// to `g`, in schedule order. Returns the delta for this call.
    ///
    /// Engines call this with the **pre-increment** round counter at the
    /// top of their step, before the propose phase — see the module docs
    /// for the numbering contract.
    pub fn apply_due<G: GossipGraph>(&mut self, round: u64, g: &mut G) -> MembershipStats {
        let mut delta = MembershipStats::default();
        while self.cursor < self.events.len() && self.events[self.cursor].0 <= round {
            match &self.events[self.cursor].1 {
                MembershipEvent::Leave { node } => {
                    delta.leaves += 1;
                    delta.edges_removed += g.remove_member(*node);
                }
                MembershipEvent::Join { node, contacts } => {
                    delta.joins += 1;
                    delta.edges_added += g.admit_member(*node, contacts);
                }
            }
            self.cursor += 1;
        }
        self.stats.absorb(delta);
        delta
    }

    /// Generates a deterministic churn-burst schedule (see [`ChurnBursts`]).
    ///
    /// The generator tracks the departed set over the timeline so victims
    /// are always drawn from live nodes, rejoin contacts from nodes live at
    /// rejoin time, and no node is scheduled to leave twice while away.
    /// Departed nodes still away after the last burst are rejoined on the
    /// usual `rejoin_after` schedule, so the plan always ends with full
    /// membership — which is what lets churn experiments measure full
    /// re-discovery.
    ///
    /// # Panics
    /// Panics if a burst would leave fewer than two live nodes.
    pub fn bursts(cfg: &ChurnBursts) -> MembershipPlan {
        assert!(cfg.n >= 2, "churn needs at least two nodes");
        let mut rng = stream_rng(cfg.seed, u64::MAX - 21, 0x6A01);
        let mut departed = vec![false; cfg.n];
        let mut away = 0usize;
        // FIFO of (rejoin_round, node): leave rounds are non-decreasing and
        // rejoin_after is fixed, so this stays sorted by construction.
        let mut pending: std::collections::VecDeque<(u64, NodeId)> = Default::default();
        let mut events: Vec<(u64, MembershipEvent)> = Vec::new();

        let drain_rejoins = |up_to: u64,
                             pending: &mut std::collections::VecDeque<(u64, NodeId)>,
                             departed: &mut Vec<bool>,
                             away: &mut usize,
                             events: &mut Vec<(u64, MembershipEvent)>,
                             rng: &mut rand::rngs::SmallRng| {
            while pending.front().is_some_and(|&(r, _)| r <= up_to) {
                let (r, node) = pending.pop_front().unwrap();
                departed[node.index()] = false;
                *away -= 1;
                let live = cfg.n - *away;
                let want = cfg.bootstrap_contacts.min(live - 1);
                let mut contacts: Vec<NodeId> = Vec::with_capacity(want);
                while contacts.len() < want {
                    let c = NodeId(rng.random_range(0..cfg.n as u32));
                    if c == node || departed[c.index()] || contacts.contains(&c) {
                        continue;
                    }
                    contacts.push(c);
                }
                events.push((r, MembershipEvent::Join { node, contacts }));
            }
        };

        for b in 0..cfg.bursts {
            let r = cfg.first_round + b as u64 * cfg.period;
            drain_rejoins(
                r,
                &mut pending,
                &mut departed,
                &mut away,
                &mut events,
                &mut rng,
            );
            assert!(
                cfg.n - away > cfg.nodes_per_burst + 1,
                "burst at round {r} would leave fewer than two live nodes"
            );
            let mut victims: Vec<NodeId> = Vec::with_capacity(cfg.nodes_per_burst);
            while victims.len() < cfg.nodes_per_burst {
                let v = NodeId(rng.random_range(0..cfg.n as u32));
                if departed[v.index()] {
                    continue;
                }
                departed[v.index()] = true;
                away += 1;
                victims.push(v);
            }
            for v in victims {
                events.push((r, MembershipEvent::Leave { node: v }));
                pending.push_back((r + cfg.rejoin_after, v));
            }
        }
        drain_rejoins(
            u64::MAX,
            &mut pending,
            &mut departed,
            &mut away,
            &mut events,
            &mut rng,
        );
        debug_assert_eq!(away, 0);
        MembershipPlan::new(events)
    }
}

/// The shared churn regression fixture.
///
/// One set of seed pairs and one snapshot cadence pin churn trajectories
/// across *layers*: `gossip-net`'s message-level simulator
/// (`crates/net/tests/churn_regression.rs`) and the engine-level
/// membership seam (`crates/core/tests/churn_pin.rs`) both derive their
/// pinned runs from these constants, so a change that perturbs the shared
/// counter-based RNG streams fails both suites on the same seeds instead
/// of drifting one layer silently.
pub mod fixture {
    use super::ChurnBursts;

    /// The pinned `(primary, secondary)` seed pairs. For the simulator the
    /// pair is `(net_seed, churn_seed)`; for the engine seam the pair is
    /// `(engine_seed, plan seed via` [`fixture_seed`]`)`.
    pub const SEED_PAIRS: [(u64, u64); 2] = [(11, 12), (77, 78)];

    /// Snapshot cadence (rounds) for every pinned trajectory.
    pub const SNAP_EVERY: u64 = 15;

    /// Folds a seed pair into one plan/stream seed.
    pub fn fixture_seed(pair: (u64, u64)) -> u64 {
        pair.0.rotate_left(32) ^ pair.1
    }

    /// The canonical engine-level burst schedule for an `n`-node world
    /// under a fixture seed pair — what the pinned engine trajectories
    /// and the churn experiment's determinism cross-checks both run.
    pub fn bursts_for(n: usize, pair: (u64, u64)) -> ChurnBursts {
        ChurnBursts {
            n,
            nodes_per_burst: (n / 16).max(1),
            bursts: 3,
            first_round: 5,
            period: SNAP_EVERY,
            rejoin_after: 7,
            bootstrap_contacts: 3,
            seed: fixture_seed(pair),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    fn burst_cfg() -> ChurnBursts {
        ChurnBursts {
            n: 64,
            nodes_per_burst: 4,
            bursts: 3,
            first_round: 5,
            period: 10,
            rejoin_after: 7,
            bootstrap_contacts: 3,
            seed: 0xC0FFEE,
        }
    }

    #[test]
    fn events_sort_stably_by_round() {
        let plan = MembershipPlan::new(vec![
            (7, MembershipEvent::Leave { node: NodeId(3) }),
            (
                2,
                MembershipEvent::Join {
                    node: NodeId(1),
                    contacts: vec![NodeId(0)],
                },
            ),
            (7, MembershipEvent::Leave { node: NodeId(4) }),
            (2, MembershipEvent::Leave { node: NodeId(9) }),
        ]);
        let rounds: Vec<u64> = plan.events().iter().map(|&(r, _)| r).collect();
        assert_eq!(rounds, vec![2, 2, 7, 7]);
        // Stability: the round-2 join was listed before the round-2 leave.
        assert!(matches!(
            plan.events()[0].1,
            MembershipEvent::Join {
                node: NodeId(1),
                ..
            }
        ));
        assert_eq!(plan.events()[1].1.node(), NodeId(9));
    }

    #[test]
    fn apply_due_advances_cursor_once_per_event() {
        let mut plan = MembershipPlan::new(vec![
            (0, MembershipEvent::Leave { node: NodeId(2) }),
            (
                3,
                MembershipEvent::Join {
                    node: NodeId(2),
                    contacts: vec![NodeId(0), NodeId(1)],
                },
            ),
        ]);
        let mut g = generators::complete(4);
        let m0 = g.m();

        let d0 = plan.apply_due(0, &mut g);
        assert_eq!(d0.leaves, 1);
        assert_eq!(d0.edges_removed, 3);
        assert_eq!(g.m(), m0 - 3);
        assert!(g.neighbors(NodeId(2)).is_empty());

        // Rounds 1..=2: nothing due; the cursor must not re-fire round 0.
        assert_eq!(plan.apply_due(1, &mut g), MembershipStats::default());
        assert_eq!(plan.apply_due(2, &mut g), MembershipStats::default());

        let d3 = plan.apply_due(3, &mut g);
        assert_eq!(d3.joins, 1);
        assert_eq!(d3.edges_added, 2);
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1)]);
        assert_eq!(plan.applied(), 2);
        assert_eq!(
            plan.stats(),
            MembershipStats {
                joins: 1,
                leaves: 1,
                edges_added: 2,
                edges_removed: 3
            }
        );
        g.validate().unwrap();
    }

    #[test]
    fn skipped_rounds_still_apply_every_due_event() {
        // An engine stepping rounds 0, 1, 2 with events at 1 and 2 but
        // queried only at round 5 (e.g. a coarse driver) must apply both.
        let mut plan = MembershipPlan::new(vec![
            (1, MembershipEvent::Leave { node: NodeId(0) }),
            (2, MembershipEvent::Leave { node: NodeId(1) }),
        ]);
        let mut g = generators::complete(4);
        let d = plan.apply_due(5, &mut g);
        assert_eq!(d.leaves, 2);
        g.validate().unwrap();
    }

    #[test]
    fn bursts_generator_is_deterministic_and_balanced() {
        let cfg = burst_cfg();
        let a = MembershipPlan::bursts(&cfg);
        let b = MembershipPlan::bursts(&cfg);
        assert_eq!(a.events(), b.events());
        let leaves = a
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, MembershipEvent::Leave { .. }))
            .count();
        let joins = a.events().len() - leaves;
        assert_eq!(leaves, cfg.nodes_per_burst * cfg.bursts);
        assert_eq!(joins, leaves, "every departure rejoins");
    }

    #[test]
    fn bursts_never_touch_departed_nodes() {
        let plan = MembershipPlan::bursts(&burst_cfg());
        let mut departed = [false; 64];
        for (_, ev) in plan.events() {
            match ev {
                MembershipEvent::Leave { node } => {
                    assert!(!departed[node.index()], "double leave of {node:?}");
                    departed[node.index()] = true;
                }
                MembershipEvent::Join { node, contacts } => {
                    assert!(departed[node.index()], "join of a live node {node:?}");
                    departed[node.index()] = false;
                    for c in contacts {
                        assert_ne!(c, node, "self-contact bootstrap");
                        assert!(!departed[c.index()], "bootstrap contact {c:?} is away");
                    }
                }
            }
        }
        assert!(departed.iter().all(|&d| !d), "plan must end fully rejoined");
    }

    #[test]
    fn bursts_replay_on_a_graph_preserves_validity() {
        let cfg = burst_cfg();
        let mut plan = MembershipPlan::bursts(&cfg);
        let mut g = generators::tree_plus_random_edges(64, 128, &mut stream_rng(9, 0, 0));
        let horizon = plan.last_round().unwrap();
        for r in 0..=horizon {
            plan.apply_due(r, &mut g);
            g.validate().unwrap();
        }
        assert_eq!(plan.applied(), plan.len());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = burst_cfg();
        let a = MembershipPlan::bursts(&cfg);
        cfg.seed ^= 1;
        let b = MembershipPlan::bursts(&cfg);
        assert_ne!(a.events(), b.events());
    }
}
