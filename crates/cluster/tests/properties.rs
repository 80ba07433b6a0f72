//! Shrinking property suite for the datagram cluster transport.
//!
//! The centerpiece claim, as a property: for any (graph, shard count,
//! rule, seed, loss rate, MTU), the cluster engine's trajectory and
//! final state are **bit-identical** to the sequential in-process
//! engine. On failure proptest shrinks toward the smallest
//! configuration that still diverges — a far better bug report than a
//! failing 2^20-node experiment.
//!
//! Thread mode only: proptest cases run inside the libtest harness,
//! where re-exec process workers are off limits.
//!
//! Under that claim sits the link protocol's own: two [`LinkMachine`]s
//! driven through an adversarial network on a fake clock deliver every
//! frame exactly once, in order.

use gossip_cluster::{ClusterBuilder, DatagramLoss, LinkMachine, DEFAULT_MTU};
use gossip_core::rng::stream_rng;
use gossip_core::RuleId;
use gossip_graph::{generators, NodeId, ShardedArenaGraph};
use gossip_shard::wire::{Frame, MailFrame};
use gossip_shard::ShardedEngine;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::{Duration, Instant};

fn sharded(n: usize, extra: u64, seed: u64, shards: usize) -> ShardedArenaGraph {
    let und = generators::tree_plus_random_edges(n, extra, &mut stream_rng(seed, 0, 0));
    ShardedArenaGraph::from_arena(&und, shards)
}

fn rule_strategy() -> impl Strategy<Value = RuleId> {
    (0usize..3).prop_map(|i| RuleId::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Lossless clusters replay the sequential trajectory exactly, for
    /// any shard count the arena supports.
    #[test]
    fn cluster_trajectory_equals_sequential(
        n in 64usize..500,
        extra_frac in 0u64..3,
        graph_seed in 0u64..1_000,
        engine_seed in 0u64..1_000,
        shards in 1usize..5,
        rule in rule_strategy(),
        rounds in 1u64..5,
    ) {
        let g = sharded(n, (n as u64 - 1) + extra_frac * n as u64, graph_seed, shards);
        let (seq_stats, seq_g) = gossip_core::with_rule!(rule, |r| {
            let mut seq = ShardedEngine::new(g.clone(), r, engine_seed);
            let stats: Vec<_> = (0..rounds).map(|_| seq.step()).collect();
            (stats, seq.graph().clone())
        });
        let mut cluster = ClusterBuilder::new(g, rule, engine_seed)
            .spawn()
            .expect("spawn cluster");
        let cluster_stats: Vec<_> = (0..rounds).map(|_| cluster.step()).collect();
        prop_assert_eq!(seq_stats, cluster_stats, "trajectory diverged");
        prop_assert_eq!(seq_g.m(), cluster.graph().m());
        for u in seq_g.nodes() {
            prop_assert_eq!(
                seq_g.neighbors(u),
                cluster.graph().neighbors(u),
                "row {:?} diverged", u
            );
        }
        cluster.shutdown().expect("clean shutdown");
    }

    /// Seeded datagram loss (drops + duplicates) never changes the
    /// result — the window layer repairs everything before the round
    /// barrier — and the injected-fault counters themselves reproduce.
    /// A third of the cases pair heavy loss with a small MTU, so holes
    /// open (and are nak'd on sight) in the middle of fragment runs.
    #[test]
    fn lossy_cluster_still_matches_and_injects_deterministically(
        n in 64usize..400,
        graph_seed in 0u64..1_000,
        engine_seed in 0u64..1_000,
        shards in 2usize..4,
        loss_seed in 0u64..1_000,
        (drop_per_mille, mtu) in (0usize..3)
            .prop_map(|i| [(50u16, DEFAULT_MTU), (200, DEFAULT_MTU), (200, 256)][i]),
        dup_per_mille in 0u16..100,
        rounds in 1u64..4,
    ) {
        let g = sharded(n, n as u64, graph_seed, shards);
        let loss = DatagramLoss { seed: loss_seed, drop_per_mille, dup_per_mille };
        let run = |g: ShardedArenaGraph| {
            let mut cluster = ClusterBuilder::new(g, RuleId::Pull, engine_seed)
                .with_loss(loss)
                .with_mtu(mtu)
                .spawn()
                .expect("spawn lossy cluster");
            let stats: Vec<_> = (0..rounds).map(|_| cluster.step()).collect();
            let injected = (
                cluster.stats().endpoint.injected_drops,
                cluster.stats().endpoint.injected_dups,
            );
            cluster.shutdown().expect("clean shutdown");
            (stats, injected)
        };
        let mut seq = ShardedEngine::new(g.clone(), gossip_core::Pull, engine_seed);
        let seq_stats: Vec<_> = (0..rounds).map(|_| seq.step()).collect();
        let (a_stats, a_injected) = run(g.clone());
        let (b_stats, b_injected) = run(g);
        prop_assert_eq!(&a_stats, &seq_stats, "lossy cluster diverged from sequential");
        prop_assert_eq!(a_stats, b_stats, "two identical lossy runs diverged");
        prop_assert_eq!(a_injected, b_injected, "fault injection not reproducible");
    }

    /// MTU is a pure transport knob: any positive budget (forcing
    /// anywhere from zero to heavy fragmentation) yields the same
    /// rounds.
    #[test]
    fn mtu_never_affects_results(
        n in 64usize..300,
        graph_seed in 0u64..1_000,
        engine_seed in 0u64..1_000,
        mtu in (0usize..4).prop_map(|i| [64usize, 200, 700, 9000][i]),
        rounds in 1u64..4,
    ) {
        let g = sharded(n, n as u64, graph_seed, 2);
        let mut seq = ShardedEngine::new(g.clone(), gossip_core::Push, engine_seed);
        let mut cluster = ClusterBuilder::new(g, RuleId::Push, engine_seed)
            .with_mtu(mtu)
            .spawn()
            .expect("spawn cluster");
        for r in 0..rounds {
            prop_assert_eq!(seq.step(), cluster.step(), "round {} diverged at mtu {}", r, mtu);
        }
        cluster.shutdown().expect("clean shutdown");
    }
}

/// The network between two link machines, as an adversary: every datagram
/// — control datagrams and retransmits included — may be refused, dropped,
/// duplicated, or delayed by up to 5 ms (so reordered).
struct Adversary {
    rng: SmallRng,
    drop_per_mille: u32,
    dup_per_mille: u32,
    /// `(arrival, to, datagram)`.
    in_flight: Vec<(Instant, usize, Vec<u8>)>,
}

impl Adversary {
    /// The carrier as of `now`. One offer in twenty is refused outright.
    fn tx(&mut self, now: Instant) -> impl FnMut(usize, &[u8]) -> bool + '_ {
        move |to, bytes| {
            if self.rng.random_range(0..20u32) == 0 {
                return false;
            }
            let copies = if self.rng.random_range(0..1000u32) < self.drop_per_mille {
                0
            } else if self.rng.random_range(0..1000u32) < self.dup_per_mille {
                2
            } else {
                1
            };
            for _ in 0..copies {
                let delay = Duration::from_micros(self.rng.random_range(0..5_000u64));
                self.in_flight.push((now + delay, to, bytes.to_vec()));
            }
            true
        }
    }

    /// The datagrams that have arrived by `now`, in arrival order.
    fn arrivals(&mut self, now: Instant) -> Vec<(usize, Vec<u8>)> {
        self.in_flight.sort_by_key(|d| d.0);
        let due = self.in_flight.partition_point(|d| d.0 <= now);
        self.in_flight
            .drain(..due)
            .map(|(_, to, d)| (to, d))
            .collect()
    }
}

/// One millisecond of fake time: A sends the next few frames, the
/// datagrams due arrive, both machines tick, and B's deliveries are
/// collected into `got`.
fn step(
    machines: &mut [LinkMachine; 2],
    net: &mut Adversary,
    to_send: &mut std::slice::Iter<'_, Frame>,
    got: &mut Vec<Frame>,
    now: Instant,
) -> Result<(), TestCaseError> {
    let fail = |e: std::io::Error| TestCaseError::fail(e.to_string());
    for frame in to_send.take(net.rng.random_range(0..3usize)) {
        machines[0].send_frame(1, frame, now, &mut net.tx(now));
    }
    for (to, dgram) in net.arrivals(now) {
        machines[to]
            .on_datagram(&dgram, now, &mut net.tx(now))
            .map_err(fail)?;
    }
    for m in machines.iter_mut() {
        m.on_tick(now, &mut net.tx(now)).map_err(fail)?;
    }
    prop_assert!(machines[0].deliver().is_none(), "B sent no frames");
    while let Some((from, frame)) = machines[1].deliver() {
        prop_assert_eq!(from, 0);
        got.push(frame);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Whatever the network does short of partitioning the link, B hands
    /// up exactly A's frames, in order, without an error, and both ends
    /// are left with nothing pending once traffic stops. The MTU is 200,
    /// so frames of more than about a dozen entries travel as fragments.
    #[test]
    fn link_machines_deliver_exactly_once_in_order(
        sizes in proptest::collection::vec(0usize..40, 1..40),
        seed in 0u64..1_000_000,
        drop_per_mille in 0u32..301,
        dup_per_mille in 0u32..300,
    ) {
        let frames: Vec<Frame> = sizes
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                Frame::Mail(MailFrame {
                    round: i as u64,
                    source: 0,
                    owner: 1,
                    seq: i as u32,
                    last: true,
                    entries: (0..k as u32).map(|j| (j, NodeId(j), NodeId(i as u32))).collect(),
                })
            })
            .collect();
        let mut machines = [LinkMachine::new(0, 2, None, 200), LinkMachine::new(1, 2, None, 200)];
        let mut net = Adversary {
            rng: stream_rng(seed, 0, 0),
            drop_per_mille,
            dup_per_mille,
            in_flight: Vec::new(),
        };
        let (mut to_send, mut got) = (frames.iter(), Vec::new());
        let t0 = Instant::now();
        let mut now = t0;
        while got.len() < frames.len() || machines.iter().any(|m| m.pending_datagrams() > 0) {
            prop_assert!(
                now - t0 < Duration::from_secs(120),
                "stalled with {} of {} frames delivered", got.len(), frames.len()
            );
            step(&mut machines, &mut net, &mut to_send, &mut got, now)?;
            now += Duration::from_millis(1);
        }
        // Traffic has stopped: the late copies land and change nothing.
        for _ in 0..100 {
            step(&mut machines, &mut net, &mut to_send, &mut got, now)?;
            now += Duration::from_millis(1);
        }
        prop_assert_eq!(&got, &frames);
        prop_assert!(net.in_flight.is_empty());
        prop_assert_eq!(machines[0].pending_datagrams(), 0);
        prop_assert_eq!(machines[1].pending_datagrams(), 0);
        let oversized = frames.iter().any(|f| {
            let mut enc = bytes::BytesMut::new();
            f.encode(&mut enc);
            enc.len() > 200
        });
        prop_assert_eq!(machines[0].stats().fragments_sent > 0, oversized);
    }
}
