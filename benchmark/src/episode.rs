//! One episode of a workload: set the engine up from `G_0`, run the
//! workload's fixed rounds, tear it down. Round counts are constants, so an
//! episode's counts repeat exactly; a run measures as many episodes as fit
//! its time budget. Every layer is driven through public functions only, and
//! timed from outside.

use crate::inputs::{arena_identity, sharded_identity, sparse_arena, sparse_sharded};
use crate::measure::{minor_faults, OpenLoop};
use crate::spec::{Kind, Spec, BATCH_POINTS, QUERY_RATE, STATS_EVERY};
use crate::trace::Tracer;
use gossip_cluster::{ClusterBuilder, ClusterEngine, DatagramLoss};
use gossip_core::engine::{propose_round, PROPOSAL_CHUNK};
use gossip_core::{
    ComponentwiseComplete, Engine, EngineBuilder, GossipGraph, Parallelism, PhaseNanos,
    ProposalRule, Pull, Push, RoundStats, RuleId, TaggedProposal,
};
use gossip_graph::{ArenaGraph, NodeId, UndirectedGraph};
use gossip_serve::{GossipService, ServeConfig};
use gossip_shard::{BuildSharded, ShardedEngine, TransportBuilder, TransportEngine, TransportMode};
use std::io;
use std::time::Instant;

/// Injected first-transmission drops of `udp-lossy`, in thousandths.
const LOSSY_DROP_PER_MILLE: u16 = 50;
/// Datagram payload budget of the udp workloads, in bytes.
const UDP_MTU: usize = 1400;

/// Link-layer counters, cumulative as the engine reports them. All zero for
/// the in-process engines: their links are idle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Link {
    pub frames: u64,
    pub bytes: u64,
    pub datagrams: u64,
    pub fragments: u64,
    pub retransmitted: u64,
    pub acks: u64,
    pub naks: u64,
    pub duplicates: u64,
    pub injected_drops: u64,
}

impl Link {
    fn zip(self, o: Link, f: fn(u64, u64) -> u64) -> Link {
        Link {
            frames: f(self.frames, o.frames),
            bytes: f(self.bytes, o.bytes),
            datagrams: f(self.datagrams, o.datagrams),
            fragments: f(self.fragments, o.fragments),
            retransmitted: f(self.retransmitted, o.retransmitted),
            acks: f(self.acks, o.acks),
            naks: f(self.naks, o.naks),
            duplicates: f(self.duplicates, o.duplicates),
            injected_drops: f(self.injected_drops, o.injected_drops),
        }
    }

    /// Counter by counter, `self + o`.
    pub fn plus(self, o: Link) -> Link {
        self.zip(o, |a, b| a + b)
    }

    fn since(self, then: Link) -> Link {
        self.zip(then, |a, b| a - b)
    }
}

fn zip_phases(a: PhaseNanos, b: PhaseNanos, f: fn(u64, u64) -> u64) -> PhaseNanos {
    PhaseNanos {
        membership: f(a.membership, b.membership),
        propose: f(a.propose, b.propose),
        route: f(a.route, b.route),
        serialize: f(a.serialize, b.serialize),
        flush: f(a.flush, b.flush),
        drain: f(a.drain, b.drain),
        apply: f(a.apply, b.apply),
    }
}

/// Phase by phase, `a + b`.
pub fn phases_plus(a: PhaseNanos, b: PhaseNanos) -> PhaseNanos {
    zip_phases(a, b, |x, y| x + y)
}

fn phases_since(now: PhaseNanos, then: PhaseNanos) -> PhaseNanos {
    zip_phases(now, then, |x, y| x - y)
}

/// What the open-loop reader of a served episode saw.
#[derive(Clone, Debug, Default)]
pub struct ServeSide {
    /// Batch latency from its due time, µs.
    pub batch_us: Vec<f64>,
    /// How late each batch was sent, µs.
    pub late_us: Vec<f64>,
    /// Age of the snapshot each batch read, ms.
    pub age_ms: Vec<f64>,
    /// Per-call timings, recorded by the traced pass only.
    pub acquire_ns: Vec<f64>,
    pub point_ns: Vec<f64>,
    pub stats_us: Vec<f64>,
    pub batches: u64,
    /// Batches that broke a read invariant.
    pub violations: u64,
}

/// The sequential round, driven from outside: `propose_round` then
/// `apply_proposals`, which is all `Engine::step` does on a churn-free run.
#[derive(Clone, Debug, Default)]
pub struct Split {
    pub propose_ns: u64,
    pub apply_ns: u64,
    /// Minor faults taken around the apply calls (around the whole loop
    /// where rounds are too short to read `/proc` twice in each).
    pub apply_faults: u64,
    pub bytes_per_edge: f64,
}

/// Everything one episode measured.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    pub setup_ns: u64,
    pub build_ns: u64,
    pub g0_edges: u64,
    /// The first `step()` after construction (udp: the bootstrap round,
    /// which belongs to set-up; elsewhere the first measured round).
    pub first_step_ns: u64,
    /// Per-round wall samples. `seq-converge` and fast served rounds cannot
    /// be timed one by one from outside: they give mean-per-round samples.
    pub round_ns: Vec<f64>,
    pub rounds: u64,
    /// Wall time of the measured rounds, first to last.
    pub wall_ns: u64,
    pub stats: Vec<RoundStats>,
    pub proposed: u64,
    pub added: u64,
    pub phases: PhaseNanos,
    pub link: Link,
    /// Peak RSS of each worker process, from the engine's `stats()`.
    pub worker_rss: Vec<u64>,
    /// Peak RSS of this process over the episode; the run's window sets it.
    pub peak_rss: u64,
    /// `(m, row checksum)` of the final graph.
    pub identity: (u64, u64),
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub serve: Option<ServeSide>,
    pub split: Option<Split>,
}

/// The sequential engine's round with the two calls timed apart.
pub struct Decomposed<R> {
    pub graph: ArenaGraph,
    rule: R,
    seed: u64,
    round: u64,
    bufs: Vec<Vec<TaggedProposal>>,
    faults_per_round: bool,
    pub split: Split,
}

impl<R: ProposalRule<ArenaGraph>> Decomposed<R> {
    pub fn new(graph: ArenaGraph, rule: R, seed: u64) -> Self {
        let chunks = graph.n().div_ceil(PROPOSAL_CHUNK);
        Decomposed {
            // Reading /proc costs tens of µs: per round only where a round
            // is milliseconds.
            faults_per_round: graph.n() >= 1 << 14,
            graph,
            rule,
            seed,
            round: 0,
            bufs: vec![Vec::new(); chunks],
            split: Split::default(),
        }
    }

    /// One round under a `round` span; returns its stats and wall time
    /// (span recording included, the `/proc` reads excluded).
    pub fn step(&mut self, tr: &mut Tracer) -> (RoundStats, u64) {
        let t0 = Instant::now();
        propose_round(
            &self.graph,
            &self.rule,
            self.seed,
            self.round,
            &mut self.bufs,
            false,
        );
        let t1 = Instant::now();
        self.round += 1;
        let faults = if self.faults_per_round {
            minor_faults()
        } else {
            0
        };
        let t2 = Instant::now();
        let stats = self.graph.apply_proposals(&self.bufs, &mut |_, _, _| {});
        let t3 = Instant::now();
        if self.faults_per_round {
            self.split.apply_faults += minor_faults() - faults;
        }
        let t4 = Instant::now();
        let root = tr.span("round", "bench", None, self.round, t0, t3);
        tr.span("propose_round", "core", Some(root), self.round, t0, t1);
        tr.span("apply_proposals", "graph", Some(root), self.round, t2, t3);
        self.split.propose_ns += (t1 - t0).as_nanos() as u64;
        self.split.apply_ns += (t3 - t2).as_nanos() as u64;
        let wall = (t1 - t0) + (t3 - t2) + t4.elapsed();
        (stats, wall.as_nanos() as u64)
    }

    fn finish(mut self) -> (Split, (u64, u64)) {
        self.split.bytes_per_edge = self.graph.memory_bytes() as f64 / self.graph.m() as f64;
        (self.split, arena_identity(&self.graph))
    }
}

// One engine lives at a time, on the stack of its episode.
#[allow(clippy::large_enum_variant)]
enum Live {
    Seq(Engine<ArenaGraph, Pull>),
    Split(Decomposed<Pull>),
    Shard(ShardedEngine<Pull>),
    Uds(TransportEngine),
    Udp(ClusterEngine),
}

impl Live {
    fn start(spec: &Spec, seed: u64, split: bool) -> io::Result<(Live, u64, u64)> {
        let t = Instant::now();
        // The workers of the process-mode engines each hold a full replica
        // and one thread; two of them fill this machine's two cores.
        let one_thread = Parallelism::Sequential;
        Ok(match spec.kind {
            Kind::SeqConverge => unreachable!("`converge` runs seq-converge"),
            Kind::SeqSparse => {
                let g = sparse_arena(spec.n, seed);
                let (build, m) = (t.elapsed().as_nanos() as u64, g.m());
                let live = if split {
                    Live::Split(Decomposed::new(g, Pull, seed))
                } else {
                    Live::Seq(Engine::new(g, Pull, seed).with_parallelism(one_thread))
                };
                (live, build, m)
            }
            Kind::ShardSparse | Kind::ServeQuery => {
                let g = sparse_sharded(spec.n, seed, spec.shards);
                let (build, m) = (t.elapsed().as_nanos() as u64, g.m());
                let par = if spec.kind == Kind::ShardSparse {
                    Parallelism::Parallel
                } else {
                    one_thread
                };
                let e = ShardedEngine::new(g, Pull, seed).with_parallelism(par);
                (Live::Shard(e), build, m)
            }
            Kind::UdsExchange => {
                let g = sparse_sharded(spec.n, seed, spec.shards);
                let (build, m) = (t.elapsed().as_nanos() as u64, g.m());
                let e = TransportBuilder::new(g, RuleId::Pull, seed)
                    .with_mode(TransportMode::Process)
                    .with_parallelism(one_thread)
                    .spawn()?;
                (Live::Uds(e), build, m)
            }
            Kind::UdpClean | Kind::UdpLossy => {
                let g = sparse_sharded(spec.n, seed, spec.shards);
                let (build, m) = (t.elapsed().as_nanos() as u64, g.m());
                let mut b = ClusterBuilder::new(g, RuleId::Pull, seed)
                    .with_mode(TransportMode::Process)
                    .with_parallelism(one_thread)
                    .with_mtu(UDP_MTU);
                if spec.kind == Kind::UdpLossy {
                    b = b.with_loss(DatagramLoss {
                        seed,
                        drop_per_mille: LOSSY_DROP_PER_MILLE,
                        dup_per_mille: 0,
                    });
                }
                (Live::Udp(b.spawn()?), build, m)
            }
        })
    }

    fn step(&mut self) -> io::Result<RoundStats> {
        match self {
            Live::Seq(e) => Ok(e.step()),
            Live::Shard(e) => Ok(e.step()),
            Live::Uds(e) => e.try_step(None),
            Live::Udp(e) => e.try_step(None),
            Live::Split(_) => unreachable!("the decomposed round records its own spans"),
        }
    }

    fn phases(&self) -> PhaseNanos {
        match self {
            Live::Seq(_) | Live::Split(_) => PhaseNanos::default(),
            Live::Shard(e) => e.phases(),
            Live::Uds(e) => e.phases(),
            Live::Udp(e) => e.phases(),
        }
    }

    fn link(&self) -> Link {
        match self {
            Live::Uds(e) => {
                let w = e.stats().wire;
                Link {
                    frames: w.frames_sent,
                    bytes: w.bytes_sent,
                    ..Link::default()
                }
            }
            Live::Udp(e) => {
                let s = e.stats().endpoint;
                Link {
                    frames: 0,
                    bytes: s.bytes_sent,
                    datagrams: s.data_datagrams,
                    fragments: s.fragments_sent,
                    retransmitted: s.retransmitted,
                    acks: s.acks_sent + s.acks_received,
                    naks: s.naks_sent + s.naks_received,
                    duplicates: s.duplicates_received,
                    injected_drops: s.injected_drops,
                }
            }
            _ => Link::default(),
        }
    }

    /// The layer each engine phase is charged to, for the synthesised spans.
    fn phase_spans(&self, d: PhaseNanos) -> [(&'static str, &'static str, u64); 6] {
        let link = if matches!(self, Live::Udp(_)) {
            "cluster"
        } else {
            "shard"
        };
        [
            ("propose", "core", d.propose),
            ("route", "shard", d.route),
            ("serialize", "shard", d.serialize),
            ("flush", link, d.flush),
            ("drain", link, d.drain),
            ("apply", "graph", d.apply),
        ]
    }

    fn layer(&self) -> &'static str {
        match self {
            Live::Seq(_) | Live::Split(_) => "core",
            Live::Shard(_) | Live::Uds(_) => "shard",
            Live::Udp(_) => "cluster",
        }
    }

    /// Stops the engine (and its workers).
    fn finish(self) -> io::Result<Finished> {
        let done = |worker_rss, identity, split| Finished {
            worker_rss,
            identity,
            split,
        };
        Ok(match self {
            Live::Seq(e) => done(Vec::new(), arena_identity(e.graph()), None),
            Live::Split(d) => {
                let (split, id) = d.finish();
                done(Vec::new(), id, Some(split))
            }
            Live::Shard(e) => done(Vec::new(), sharded_identity(e.graph()), None),
            Live::Uds(mut e) => {
                let rss = e.stats().worker_peak_rss_bytes.clone();
                let id = sharded_identity(e.graph());
                e.shutdown()?;
                done(rss, id, None)
            }
            Live::Udp(mut e) => {
                // Index 0 is the coordinator: this process, counted by VmHWM.
                let rss = e.stats().worker_peak_rss_bytes[1..].to_vec();
                let id = sharded_identity(e.graph());
                e.shutdown()?;
                done(rss, id, None)
            }
        })
    }
}

/// What an engine leaves behind when it stops.
struct Finished {
    worker_rss: Vec<u64>,
    identity: (u64, u64),
    split: Option<Split>,
}

/// An episode of a workload whose rounds the benchmark steps itself:
/// `seq-sparse`, `shard-sparse`, `uds-exchange`, `udp-*` (and the batch twin
/// of `serve-query`). Traced, `seq-sparse` runs the decomposed round; the
/// others get one span per `step()` with children from `phases()` deltas.
pub fn stepped(spec: &Spec, seed: u64, mut tr: Option<&mut Tracer>) -> Episode {
    let mut ep = Episode::default();
    let split = tr.is_some() && spec.kind == Kind::SeqSparse;
    let t_setup = Instant::now();
    let mut live = match Live::start(spec, seed, split) {
        Ok((live, build_ns, m)) => {
            ep.build_ns = build_ns;
            ep.g0_edges = m;
            live
        }
        Err(e) => return ep.fail(format!("spawn: {e}")),
    };
    if matches!(live, Live::Udp(_)) {
        // The streamed bootstrap rides the first round: it is set-up.
        let t = Instant::now();
        ep.attempted += 1;
        if let Err(e) = live.step() {
            return ep.fail(format!("bootstrap round: {e}"));
        }
        ep.first_step_ns = t.elapsed().as_nanos() as u64;
    }
    ep.setup_ns = t_setup.elapsed().as_nanos() as u64;

    let (phases0, link0) = (live.phases(), live.link());
    let mut phases_prev = phases0;
    let t_window = Instant::now();
    for r in 1..=spec.rounds {
        ep.attempted += 1;
        let (stats, ns) = match (&mut live, tr.as_deref_mut()) {
            (Live::Split(d), Some(tr)) => d.step(tr),
            (live, tr) => {
                let t0 = Instant::now();
                let stats = match live.step() {
                    Ok(s) => s,
                    Err(e) => return ep.fail(format!("round {r}: {e}")),
                };
                let t1 = Instant::now();
                if let Some(tr) = tr {
                    let now = live.phases();
                    let root = tr.span("round", live.layer(), None, r, t0, t1);
                    tr.engine_children(root, &live.phase_spans(phases_since(now, phases_prev)));
                    phases_prev = now;
                }
                (stats, (t1 - t0).as_nanos() as u64)
            }
        };
        ep.round_ns.push(ns as f64);
        ep.stats.push(stats);
    }
    ep.wall_ns = t_window.elapsed().as_nanos() as u64;
    if ep.first_step_ns == 0 {
        ep.first_step_ns = ep.round_ns[0] as u64;
    }
    ep.rounds = spec.rounds;
    ep.proposed = ep.stats.iter().map(|s| s.proposed).sum();
    ep.added = ep.stats.iter().map(|s| s.added).sum();
    ep.phases = phases_since(live.phases(), phases0);
    ep.link = live.link().since(link0);
    match live.finish() {
        Ok(done) => {
            ep.worker_rss = done.worker_rss;
            ep.identity = done.identity;
            ep.split = done.split;
        }
        Err(e) => return ep.fail(format!("shutdown: {e}")),
    }
    ep
}

impl Episode {
    /// Wall time of the measured rounds / rounds.
    pub fn mean_round_ns(&self) -> f64 {
        self.wall_ns as f64 / self.rounds.max(1) as f64
    }

    fn fail(mut self, why: String) -> Episode {
        self.failed += 1;
        self.errors.push(why);
        self
    }
}

/// An episode of `seq-converge`: Push from `G_0` to the complete graph.
/// Untraced it is one `Engine::run_until` call; traced it is the decomposed
/// round repeated until the same target.
pub fn converge(spec: &Spec, seed: u64, tr: Option<&mut Tracer>) -> Episode {
    let mut ep = Episode::default();
    let t_setup = Instant::now();
    let g = sparse_arena(spec.n, seed);
    ep.build_ns = t_setup.elapsed().as_nanos() as u64;
    ep.g0_edges = g.m();
    let und = UndirectedGraph::from_edges(spec.n, g.edges().map(|e| (e.a.0, e.b.0)));
    let mut check = ComponentwiseComplete::for_graph(&und);
    let target = check.target_edges();
    drop(und);
    match tr {
        None => {
            let mut e = Engine::new(g, Push, seed).with_parallelism(Parallelism::Sequential);
            ep.setup_ns = t_setup.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let out = e.run_until(&mut check, spec.rounds);
            ep.wall_ns = t.elapsed().as_nanos() as u64;
            ep.rounds = out.rounds;
            ep.identity = arena_identity(e.graph());
        }
        Some(tr) => {
            let mut d = Decomposed::new(g, Push, seed);
            ep.setup_ns = t_setup.elapsed().as_nanos() as u64;
            let faults = minor_faults();
            let t = Instant::now();
            while d.graph.edge_count() < target && ep.rounds < spec.rounds {
                let (stats, ns) = d.step(tr);
                ep.round_ns.push(ns as f64);
                ep.rounds += 1;
                ep.proposed += stats.proposed;
                ep.added += stats.added;
            }
            ep.wall_ns = t.elapsed().as_nanos() as u64;
            d.split.apply_faults = minor_faults() - faults;
            let (split, id) = d.finish();
            ep.split = Some(split);
            ep.identity = id;
        }
    }
    ep.attempted = ep.rounds;
    if ep.round_ns.is_empty() {
        // `run_until` cannot be timed round by round from outside.
        ep.round_ns.push(ep.mean_round_ns());
    }
    ep.first_step_ns = ep.round_ns[0] as u64;
    if ep.identity.0 != target {
        let why = format!(
            "stopped at m = {} of {target} after {} rounds",
            ep.identity.0, ep.rounds
        );
        ep = ep.fail(why);
    }
    ep
}

/// A served episode: `GossipService` over the sharded engine on `G_0`,
/// publishing every round, with one open-loop reader on this thread. A
/// batch is `handle.snapshot()` + `BATCH_POINTS` × (`neighbors`, `knows`),
/// every `STATS_EVERY`-th also `stats()`; it is timed from its due time.
/// Rounds are observed by polling `handle.rounds()` once a batch.
pub fn served(spec: &Spec, seed: u64, rounds: u64, mut tr: Option<&mut Tracer>) -> Episode {
    let mut ep = Episode::default();
    let mut side = ServeSide::default();
    let t_setup = Instant::now();
    let g = sparse_sharded(spec.n, seed, 8);
    ep.build_ns = t_setup.elapsed().as_nanos() as u64;
    ep.g0_edges = g.m();
    let engine = EngineBuilder::new(g, Pull, seed)
        .parallelism(Parallelism::Sequential)
        .build_sharded();
    let svc = GossipService::spawn(
        engine,
        ServeConfig {
            snapshot_every: 1,
            budget: rounds,
        },
    );
    let handle = svc.handle();
    ep.setup_ns = t_setup.elapsed().as_nanos() as u64;

    let n = spec.n as u64;
    let t_window = Instant::now();
    let (mut seen_rounds, mut seen_at) = (0u64, t_window);
    let mut first_seen: Vec<Option<Instant>> = vec![None; rounds as usize + 3];
    let mut last_epoch = 0u64;
    let mut sched = OpenLoop::new(QUERY_RATE);
    let mut wall_end = None;
    let mut i = 0u64;
    while wall_end.is_none() {
        let (due, sent) = sched.next();
        let r = handle.rounds();
        if r > seen_rounds {
            let per_round = (sent - seen_at).as_nanos() as f64 / (r - seen_rounds) as f64;
            if let Some(tr) = tr.as_deref_mut() {
                tr.span("round", "serve", None, r, seen_at, sent);
            }
            // One sample a round, so that sample j is round j in every
            // episode even when a poll saw several rounds complete.
            ep.round_ns
                .extend(std::iter::repeat_n(per_round, (r - seen_rounds) as usize));
            if seen_rounds == 0 {
                ep.first_step_ns = per_round as u64;
            }
            (seen_rounds, seen_at) = (r, sent);
            if r >= rounds {
                wall_end = Some(sent);
            }
        }
        let t0 = Instant::now();
        let snap = handle.snapshot();
        let t1 = Instant::now();
        let mut ok = snap.epoch >= last_epoch && snap.round <= rounds;
        last_epoch = snap.epoch;
        let seen = *first_seen[snap.epoch as usize].get_or_insert(t1);
        for k in 0..BATCH_POINTS {
            let u = NodeId(((i * 131 + k * 31) % n) as u32);
            let nbrs = snap.neighbors(u);
            ok &= nbrs.len() == snap.degree(u);
            if let Some(&v) = nbrs.first() {
                ok &= snap.knows(u, v);
            }
        }
        let t2 = Instant::now();
        let with_stats = i.is_multiple_of(STATS_EVERY);
        if with_stats {
            let stats = snap.stats();
            ok &= stats.edges == snap.edge_count() && stats.coverage <= 1.0 + f64::EPSILON;
        }
        let done = Instant::now();
        side.batch_us.push((done - due).as_nanos() as f64 / 1e3);
        side.late_us.push((sent - due).as_nanos() as f64 / 1e3);
        side.age_ms.push((done - seen).as_nanos() as f64 / 1e6);
        if let Some(tr) = tr.as_deref_mut() {
            let root = tr.span("batch", "bench", None, i, sent, done);
            tr.span("snapshot", "serve", Some(root), i, t0, t1);
            tr.span("point_queries", "serve", Some(root), i, t1, t2);
            side.acquire_ns.push((t1 - t0).as_nanos() as f64);
            side.point_ns
                .push((t2 - t1).as_nanos() as f64 / BATCH_POINTS as f64);
            if with_stats {
                tr.span("stats", "serve", Some(root), i, t2, done);
                side.stats_us.push((done - t2).as_nanos() as f64 / 1e3);
            }
        }
        side.batches += 1;
        side.violations += !ok as u64;
        i += 1;
    }
    ep.wall_ns = (wall_end.expect("loop ends on it") - t_window).as_nanos() as u64;
    let (engine, outcome) = svc.join();
    ep.rounds = outcome.rounds;
    ep.identity = sharded_identity(engine.graph());
    ep.attempted = rounds + side.batches;
    ep.failed = side.violations;
    if side.violations > 0 {
        ep.errors.push(format!(
            "{} batches broke a read invariant",
            side.violations
        ));
    }
    if outcome.rounds != rounds {
        ep = ep.fail(format!("served {} of {rounds} rounds", outcome.rounds));
    }
    ep.serve = Some(side);
    ep
}

/// The run a workload's final graph must agree with, made after the timed
/// windows: the other engine for the two in-process workloads (sequential
/// against sharded), an in-process `ShardedEngine` for the link engines and
/// the served run. (`udp-*` run one more round than they measure: the
/// bootstrap round.)
pub fn oracle(spec: &Spec, seed: u64) -> Episode {
    let (kind, shards, rounds) = match spec.kind {
        Kind::ShardSparse => (Kind::SeqSparse, 1, spec.rounds),
        Kind::SeqSparse => (Kind::ShardSparse, 8, spec.rounds),
        Kind::UdpClean | Kind::UdpLossy => (Kind::ShardSparse, spec.shards, spec.rounds + 1),
        Kind::UdsExchange => (Kind::ShardSparse, spec.shards, spec.rounds),
        Kind::ServeQuery => (Kind::ServeQuery, spec.shards, spec.rounds),
        Kind::SeqConverge => unreachable!("the complete graph is its own oracle"),
    };
    let twin = Spec {
        kind,
        shards,
        rounds,
        ..*spec
    };
    stepped(&twin, seed, None)
}
