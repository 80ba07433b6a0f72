//! Cross-process shard transport: the sharded round engine executed as
//! one **supervisor** plus `S` **shard workers**, exchanging serialized
//! mailboxes over Unix domain sockets in the [`wire`](crate::wire) frame
//! format.
//!
//! # Topology
//!
//! Every worker holds a *full replica* of `G_t` — the paper's model has
//! each node act against the whole current graph (a Pull proposal is a
//! two-hop walk through arbitrary rows), so shard-local state is not
//! enough to propose. What is sharded is the *work*: worker `s` proposes
//! only its own chunk span, routes its proposals into `S` per-owner
//! mailboxes, and uploads them; the supervisor broadcasts every mailbox
//! to every other worker so all replicas converge, and applies the full
//! mail grid to its own authoritative copy (which is what
//! [`TransportEngine::graph`] exposes and what the convergence seam
//! reads). The replication cost is the honest price of the model — the
//! E19 experiment reports it as per-worker peak RSS.
//!
//! # One round on the wire
//!
//! 1. supervisor → workers: `Start{round}`; each side applies due
//!    membership events locally (the plan was shipped in `Config`, so
//!    churn costs zero wire bytes per round).
//! 2. worker `s`: propose own span ([`propose_chunk_range`]), route,
//!    serialize each `(s, owner)` mailbox into `Mail` frames, upload,
//!    then barrier with `Proposed`.
//! 3. supervisor: reassemble uploads, broadcast each `(source, owner)`
//!    stream to every worker except its source — in canonical
//!    `(source, owner, seq)` order in deterministic mode, through the
//!    seeded drop/duplicate/reorder injector in lossy mode — then
//!    `EndMail`.
//! 4. worker: reassemble; on gaps send `Nak`s (terminated by `EndMail`)
//!    and wait for clean retransmits; once complete, apply all mail to
//!    the replica and barrier with `Done{added, timings, peak RSS}`.
//! 5. supervisor: apply the same grid to its own graph and cross-check
//!    each worker's `added` against its own per-segment count.
//!
//! Workers tag half-edges with slots local to their own source stream.
//! That is safe because the merge
//! ([`gossip_graph::ShardSeg::apply_half_edges`]) sorts by `(key, slot)`,
//! dedups by key, and then *discards the slot* — only the relative order
//! within one source stream could ever matter, and that is preserved.
//! Hence no global slot prefix-sum synchronization round is needed, and
//! the deterministic mode is bit-identical to [`ShardedEngine`](crate::ShardedEngine) and the
//! sequential engine for any `(S, mode, thread count)` — pinned by the
//! determinism suite.
//!
//! # Modes
//!
//! [`TransportMode::Thread`] runs each worker as an OS thread on a
//! socketpair — same serialized wire path, no exec, usable under the
//! normal test harness. [`TransportMode::Process`] re-execs the current
//! binary for each worker; the child detects [`WORKER_SOCKET_ENV`] via
//! [`maybe_run_worker`], which binaries embedding this engine must call
//! at the top of `main` (the CLI, `exp_transport`, and the `uds_process`
//! integration test all do). **Never use `Process` mode from a default
//! libtest harness** — the re-execed child would be the test harness
//! itself and would run the whole test suite instead of a worker.

use crate::driver::{peak_rss_bytes, protocol_err, ShardReplica, Workers};
use crate::framed::FramedConn;
use crate::wire::{
    mailbox_frames, Frame, MailboxAssembler, NakFrame, WireStats, MAX_FRAME_ENTRIES,
};
use bytes::BytesMut;
use gossip_core::listener::{PhaseEvent, PhaseNanos, RoundListener, RoundPhase};
use gossip_core::rng::stream_rng;
use gossip_core::seam::{run_engine_until, RoundEngine};
use gossip_core::{
    ConvergenceCheck, MembershipPlan, MembershipStats, Parallelism, RoundStats, RuleId, RunOutcome,
};
use gossip_graph::{HalfEdge, ShardSegSnapshot, ShardedArenaGraph};
use rand::Rng;
use std::io;
use std::os::unix::net::UnixStream;
use std::process::Command;
use std::time::Instant;

/// Environment variable carrying the supervisor's socket path to a
/// re-execed worker process. Set only by [`TransportMode::Process`].
pub const WORKER_SOCKET_ENV: &str = "GOSSIP_TRANSPORT_SOCKET";

/// How the shard workers are hosted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportMode {
    /// Workers are OS threads on `socketpair`s — the full serialized wire
    /// path without exec, safe under any test harness.
    #[default]
    Thread,
    /// Workers are child processes (re-exec of the current binary over a
    /// named Unix socket). The hosting binary must call
    /// [`maybe_run_worker`] first thing in `main`.
    Process,
}

/// Seeded fault injection for the supervisor → worker broadcast leg.
///
/// Injection applies only to forwarded `Mail` frames (never control
/// frames, never retransmissions), so every round terminates: one nak
/// cycle delivers the survivors' complement cleanly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossyConfig {
    /// Seed for the per-`(round, destination)` injection streams.
    pub seed: u64,
    /// Per-frame drop probability, in thousandths.
    pub drop_per_mille: u16,
    /// Per-frame duplication probability, in thousandths.
    pub dup_per_mille: u16,
    /// Whether each destination's round stream is shuffled.
    pub reorder: bool,
}

impl Default for LossyConfig {
    fn default() -> Self {
        LossyConfig {
            seed: 0,
            drop_per_mille: 50,
            dup_per_mille: 25,
            reorder: true,
        }
    }
}

/// Transport-level counters for a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Wire counters (supervisor's viewpoint).
    pub wire: WireStats,
    /// Peak RSS reported by each worker in its latest `Done` barrier. In
    /// process mode these are genuine per-process high-water marks.
    pub worker_peak_rss_bytes: Vec<u64>,
    /// Rounds that needed at least one retransmit cycle.
    pub recovered_rounds: u64,
}

/// Builds a [`TransportEngine`] (builder style).
#[derive(Debug)]
pub struct TransportBuilder {
    graph: ShardedArenaGraph,
    rule: RuleId,
    seed: u64,
    parallelism: Parallelism,
    membership: Option<MembershipPlan>,
    mode: TransportMode,
    lossy: Option<LossyConfig>,
}

impl TransportBuilder {
    /// Starts a builder over `graph` (its shard count fixes the worker
    /// count) with the given rule and experiment seed.
    pub fn new(graph: ShardedArenaGraph, rule: RuleId, seed: u64) -> Self {
        TransportBuilder {
            graph,
            rule,
            seed,
            parallelism: Parallelism::default(),
            membership: None,
            mode: TransportMode::Thread,
            lossy: None,
        }
    }

    /// Worker hosting mode (default: [`TransportMode::Thread`]).
    pub fn with_mode(mut self, mode: TransportMode) -> Self {
        self.mode = mode;
        self
    }

    /// Parallelism policy inside the supervisor and each worker.
    pub fn with_parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Installs a membership plan. The full schedule is shipped to every
    /// worker at bootstrap; each side applies due events locally at the
    /// same pre-increment round points as the in-process engines.
    pub fn with_membership(mut self, plan: MembershipPlan) -> Self {
        self.membership = Some(plan);
        self
    }

    /// Switches the broadcast leg to lossy mode with the given injection
    /// parameters (default: deterministic canonical-order delivery).
    pub fn with_lossy(mut self, cfg: LossyConfig) -> Self {
        self.lossy = Some(cfg);
        self
    }

    /// Spawns the workers, ships bootstrap state (config, membership
    /// schedule, segment snapshots), and returns the running engine.
    pub fn spawn(self) -> io::Result<TransportEngine> {
        TransportEngine::spawn(self)
    }
}

/// One `(source, owner)` mail frame, encoded once and broadcast to every
/// non-source destination.
struct EncodedMail {
    source: u32,
    seq_key: (u32, u32, u32),
    bytes: Vec<u8>,
}

/// The supervisor half of the cross-process transport. Implements
/// [`RoundEngine`], so everything that drives a [`ShardedEngine`] — the
/// convergence seam, listeners, the serve layer — drives this engine
/// unchanged over the serialized path.
///
/// [`ShardedEngine`]: crate::ShardedEngine
#[derive(Debug)]
pub struct TransportEngine {
    /// The authoritative replica; the supervisor owns no span.
    replica: ShardReplica,
    round: u64,
    lossy: Option<LossyConfig>,
    /// One connection per worker, in shard order. Declared before
    /// `workers` so a failed engine closes them first and thread-mode
    /// workers see EOF.
    conns: Vec<FramedConn>,
    workers: Workers,
    mail: Vec<Vec<Vec<HalfEdge>>>,
    phases: PhaseNanos,
    stats: TransportStats,
    enc: BytesMut,
    shut_down: bool,
}

impl TransportEngine {
    fn spawn(b: TransportBuilder) -> io::Result<TransportEngine> {
        let shards = b.graph.shard_count();
        let strict = b.lossy.is_none();

        // Encode the bootstrap segment frames once; every worker gets the
        // same bytes.
        let mut enc = BytesMut::new();
        let seg_frames: Vec<Vec<u8>> = (0..shards)
            .map(|s| {
                enc.clear();
                Frame::Segment {
                    index: s as u32,
                    snapshot: b.graph.segment(s).snapshot(),
                }
                .encode(&mut enc);
                enc.to_vec()
            })
            .collect();

        // `workers` before `conns`: should a later step fail, the
        // connections close first and the lifecycle cleans up after.
        let mut workers = Workers::default();
        let mut conns = Vec::with_capacity(shards);
        for s in 0..shards {
            let stream = match b.mode {
                TransportMode::Thread => {
                    let (sup, wrk) = UnixStream::pair()?;
                    workers.spawn_thread(format!("gossip-worker-{s}"), move || run_worker(wrk))?;
                    sup
                }
                TransportMode::Process => workers.spawn_process_on_socket(
                    &mut Command::new(std::env::current_exe()?),
                    WORKER_SOCKET_ENV,
                )?,
            };
            conns.push(FramedConn::from_stream(stream)?);
        }

        let mut engine = TransportEngine {
            replica: ShardReplica::new(b.graph, b.rule, b.seed, b.parallelism, b.membership, None),
            round: 0,
            lossy: b.lossy,
            conns,
            workers,
            mail: vec![vec![Vec::new(); shards]; shards],
            phases: PhaseNanos::default(),
            stats: TransportStats {
                worker_peak_rss_bytes: vec![0; shards],
                ..TransportStats::default()
            },
            enc,
            shut_down: false,
        };

        // Bootstrap each worker: Config, then every segment, then wait for
        // its Hello ack.
        for s in 0..shards {
            let cfg = Frame::Config(engine.replica.worker_config(s, strict, Vec::new()));
            engine.send(s, &cfg)?;
            for bytes in &seg_frames {
                engine.conns[s].send_raw(bytes)?;
                engine.stats.wire.frames_sent += 1;
                engine.stats.wire.bytes_sent += bytes.len() as u64;
            }
            engine.conns[s].flush()?;
        }
        for s in 0..shards {
            match engine.recv(s)? {
                Frame::Hello { shard } if shard as usize == s => {}
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("worker {s}: expected Hello, got {other:?}"),
                    ))
                }
            }
        }
        Ok(engine)
    }

    fn send(&mut self, s: usize, frame: &Frame) -> io::Result<()> {
        let bytes = self.conns[s].send(frame)?;
        self.stats.wire.frames_sent += 1;
        self.stats.wire.bytes_sent += bytes;
        Ok(())
    }

    fn recv(&mut self, s: usize) -> io::Result<Frame> {
        let conn = &mut self.conns[s];
        let frame = conn.recv()?;
        self.stats.wire.frames_received += 1;
        self.stats.wire.bytes_received += conn.last_recv_bytes();
        Ok(frame)
    }

    /// The authoritative graph `G_t` (the supervisor's replica — every
    /// round cross-checks the workers against it).
    #[inline]
    pub fn graph(&self) -> &ShardedArenaGraph {
        self.replica.graph()
    }

    /// Rounds executed so far.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of shard workers.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.conns.len()
    }

    /// The rule's registry id.
    pub fn rule(&self) -> RuleId {
        self.replica.rule()
    }

    /// Cumulative per-phase wall time. `Propose`/`Route`/`Serialize` are
    /// the max over workers (the critical path of the parallel phase);
    /// `Flush` is supervisor write/broadcast time, `Drain` supervisor
    /// read/reassembly/barrier time, `Apply` the supervisor's own merge.
    pub fn phases(&self) -> PhaseNanos {
        self.phases
    }

    /// Transport counters so far.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Executes one synchronous round across the workers.
    pub fn step(&mut self) -> RoundStats {
        self.try_step(None).expect("transport round failed")
    }

    /// Runs until `check` fires or `max_rounds` is reached (the shared
    /// loop from [`gossip_core::seam`]).
    pub fn run_until<C: ConvergenceCheck<ShardedArenaGraph>>(
        &mut self,
        check: &mut C,
        max_rounds: u64,
    ) -> RunOutcome {
        run_engine_until(self, check, max_rounds)
    }

    /// One round, with full error reporting (worker death, protocol
    /// violations, cross-check failures all surface as `io::Error`).
    pub fn try_step(
        &mut self,
        mut listener: Option<&mut dyn RoundListener<ShardedArenaGraph>>,
    ) -> io::Result<RoundStats> {
        let shards = self.shard_count();
        let r = self.round;

        // Membership: the supervisor applies due events to the
        // authoritative replica; workers do the same on Start.
        let t = Instant::now();
        let mem_delta = self.replica.apply_membership(r);
        let mem_nanos = t.elapsed().as_nanos() as u64;

        // Kick off the round.
        let mut flush_ns = 0u64;
        let t = Instant::now();
        for s in 0..shards {
            self.send(s, &Frame::Start { round: r })?;
            self.conns[s].flush()?;
        }
        flush_ns += t.elapsed().as_nanos() as u64;
        self.round += 1;

        // Collect uploads: each worker sends its S mailbox streams in
        // canonical order, then a Proposed barrier.
        let mut drain_ns = 0u64;
        let t = Instant::now();
        let mut proposed_total = 0u64;
        let (mut propose_ns, mut route_ns, mut serialize_ns) = (0u64, 0u64, 0u64);
        for s in 0..shards {
            let mut asm = MailboxAssembler::for_source(shards, s, r);
            loop {
                match self.recv(s)? {
                    Frame::Mail(f) => {
                        asm.accept(&f).map_err(protocol_err)?;
                    }
                    Frame::Proposed(b) => {
                        if b.round != r || b.source as usize != s {
                            return Err(protocol_err(format!(
                                "worker {s}: stray barrier {b:?} in round {r}"
                            )));
                        }
                        proposed_total += b.proposed;
                        propose_ns = propose_ns.max(b.propose_ns);
                        route_ns = route_ns.max(b.route_ns);
                        serialize_ns = serialize_ns.max(b.serialize_ns);
                        break;
                    }
                    other => {
                        return Err(protocol_err(format!(
                            "worker {s}: expected Mail/Proposed, got {other:?}"
                        )))
                    }
                }
            }
            if !asm.is_complete() {
                return Err(protocol_err(format!(
                    "worker {s}: barrier before its mail completed"
                )));
            }
            self.mail[s] = std::mem::take(&mut asm.into_mail()[s]);
        }
        drain_ns += t.elapsed().as_nanos() as u64;

        // Broadcast: encode each (source, owner) stream once, deliver to
        // every non-source destination — canonical order when strict,
        // through the injector when lossy.
        let t = Instant::now();
        let mut encoded: Vec<EncodedMail> = Vec::new();
        for s in 0..shards {
            for owner in 0..shards {
                for f in mailbox_frames(
                    r,
                    s as u32,
                    owner as u32,
                    &self.mail[s][owner],
                    MAX_FRAME_ENTRIES,
                ) {
                    self.enc.clear();
                    Frame::Mail(f.clone()).encode(&mut self.enc);
                    encoded.push(EncodedMail {
                        source: s as u32,
                        seq_key: (s as u32, owner as u32, f.seq),
                        bytes: self.enc.to_vec(),
                    });
                }
            }
        }
        for d in 0..shards {
            let mut deliver: Vec<usize> = (0..encoded.len())
                .filter(|&i| encoded[i].source as usize != d)
                .collect();
            if let Some(lossy) = self.lossy {
                let mut rng = stream_rng(lossy.seed, r, d as u64);
                let drop_p = f64::from(lossy.drop_per_mille) / 1000.0;
                let dup_p = f64::from(lossy.dup_per_mille) / 1000.0;
                let mut shaped = Vec::with_capacity(deliver.len());
                for i in deliver {
                    if rng.random_bool(drop_p) {
                        self.stats.wire.frames_dropped += 1;
                        continue;
                    }
                    shaped.push(i);
                    if rng.random_bool(dup_p) {
                        self.stats.wire.frames_duplicated += 1;
                        shaped.push(i);
                    }
                }
                if lossy.reorder && shaped.len() > 1 {
                    // Fisher–Yates on the injection stream.
                    for k in (1..shaped.len()).rev() {
                        let j = rng.random_range(0..=k);
                        shaped.swap(k, j);
                    }
                    self.stats.wire.streams_reordered += 1;
                }
                deliver = shaped;
            }
            for i in deliver {
                let bytes = &encoded[i].bytes;
                self.conns[d].send_raw(bytes)?;
                self.stats.wire.frames_sent += 1;
                self.stats.wire.bytes_sent += bytes.len() as u64;
            }
            self.send(d, &Frame::EndMail { round: r })?;
            self.conns[d].flush()?;
        }
        flush_ns += t.elapsed().as_nanos() as u64;

        // Apply barriers — servicing nak/retransmit cycles until every
        // worker reports Done.
        let t = Instant::now();
        let mut worker_added = vec![0u64; shards];
        for (d, added_slot) in worker_added.iter_mut().enumerate() {
            let mut recovered = false;
            loop {
                match self.recv(d)? {
                    Frame::Done(b) => {
                        if b.round != r || b.source as usize != d {
                            return Err(protocol_err(format!(
                                "worker {d}: stray Done {b:?} in round {r}"
                            )));
                        }
                        *added_slot = b.added;
                        self.stats.worker_peak_rss_bytes[d] =
                            self.stats.worker_peak_rss_bytes[d].max(b.peak_rss_bytes);
                        break;
                    }
                    Frame::Nak(nak) => {
                        self.stats.wire.naks += 1;
                        recovered = true;
                        self.retransmit(d, &nak, &encoded)?;
                    }
                    Frame::EndMail { round } if round == r => {
                        // End of this nak batch: close the retransmit
                        // cycle so the worker re-checks completeness.
                        self.send(d, &Frame::EndMail { round: r })?;
                        self.conns[d].flush()?;
                    }
                    other => {
                        return Err(protocol_err(format!(
                            "worker {d}: expected Done/Nak, got {other:?}"
                        )))
                    }
                }
            }
            if recovered {
                self.stats.recovered_rounds += 1;
            }
        }
        drain_ns += t.elapsed().as_nanos() as u64;

        // Authoritative apply: merge the full grid into the supervisor's
        // replica — identical to the in-process engine's phase 3.
        let t_apply = Instant::now();
        self.replica.apply_grid(&mut self.mail);
        let apply_ns = t_apply.elapsed().as_nanos() as u64;

        // Cross-check: each worker's own-segment merge must agree with
        // the supervisor's — a divergent replica is a protocol bug, not
        // something to paper over.
        for (s, (&from_worker, &local)) in worker_added.iter().zip(self.replica.added()).enumerate()
        {
            if from_worker != local {
                return Err(protocol_err(format!(
                    "worker {s} added {from_worker} edges in round {r}, supervisor added {local}"
                )));
            }
        }

        // Emit phase events in enum order (the accumulator sums, but
        // listeners see a canonical sequence).
        let round_for_events = self.round;
        let mut emit = |phase: RoundPhase, nanos: u64| {
            let ev = PhaseEvent {
                round: round_for_events,
                phase,
                nanos,
            };
            self.phases.absorb(&ev);
            if let Some(l) = listener.as_deref_mut() {
                l.on_phase(&ev);
            }
        };
        if mem_delta != MembershipStats::default() {
            emit(RoundPhase::Membership, mem_nanos);
        }
        emit(RoundPhase::Propose, propose_ns);
        emit(RoundPhase::Route, route_ns);
        emit(RoundPhase::Serialize, serialize_ns);
        emit(RoundPhase::Flush, flush_ns);
        emit(RoundPhase::Drain, drain_ns);
        emit(RoundPhase::Apply, apply_ns);

        Ok(RoundStats {
            proposed: proposed_total,
            added: self.replica.added().iter().sum(),
        })
    }

    /// Services one nak: resend the reported stream's missing frames —
    /// clean, in seq order, injection-free.
    fn retransmit(&mut self, d: usize, nak: &NakFrame, encoded: &[EncodedMail]) -> io::Result<()> {
        let wanted: Vec<&EncodedMail> = encoded
            .iter()
            .filter(|e| {
                let (s, o, q) = e.seq_key;
                s == nak.source
                    && o == nak.owner
                    && match nak.known_total {
                        None => true,
                        Some(_) => nak.missing.contains(&q),
                    }
            })
            .collect();
        if wanted.is_empty() {
            return Err(protocol_err(format!(
                "worker {d} nak'd unknown stream ({} -> {})",
                nak.source, nak.owner
            )));
        }
        for e in wanted {
            self.conns[d].send_raw(&e.bytes)?;
            self.stats.wire.frames_sent += 1;
            self.stats.wire.bytes_sent += e.bytes.len() as u64;
            self.stats.wire.retransmitted_frames += 1;
        }
        Ok(())
    }

    /// Sends `Shutdown` to every worker and reaps threads/processes.
    /// Called automatically on drop; explicit calls surface errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        if self.shut_down {
            return Ok(());
        }
        self.shut_down = true;
        for s in 0..self.conns.len() {
            let _ = self.send(s, &Frame::Shutdown);
            let _ = self.conns[s].flush();
        }
        self.workers.reap()
    }
}

impl Drop for TransportEngine {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl RoundEngine for TransportEngine {
    type Graph = ShardedArenaGraph;
    #[inline]
    fn graph(&self) -> &ShardedArenaGraph {
        self.replica.graph()
    }
    #[inline]
    fn quanta(&self) -> u64 {
        self.round
    }
    #[inline]
    fn step_quantum(&mut self) -> RoundStats {
        self.step()
    }
    #[inline]
    fn step_listened(&mut self, listener: &mut dyn RoundListener<ShardedArenaGraph>) -> RoundStats {
        self.try_step(Some(listener))
            .expect("transport round failed")
    }
}

/// If [`WORKER_SOCKET_ENV`] is set, runs this process as a shard worker
/// against that socket and exits; otherwise returns immediately. Binaries
/// that may host [`TransportMode::Process`] workers — the CLI,
/// `exp_transport`, the `uds_process` test — call this first thing in
/// `main`.
pub fn maybe_run_worker() {
    let Ok(path) = std::env::var(WORKER_SOCKET_ENV) else {
        return;
    };
    let stream = match UnixStream::connect(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gossip worker: cannot connect to {path}: {e}");
            std::process::exit(2);
        }
    };
    match run_worker(stream) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("gossip worker: {e}");
            std::process::exit(1);
        }
    }
}

/// The worker loop, shared verbatim by thread mode and process mode: the
/// only difference between the two is who owns the other end of `stream`.
pub fn run_worker(stream: UnixStream) -> io::Result<()> {
    let mut conn = FramedConn::from_stream(stream)?;

    // Bootstrap: Config, then one Segment per shard, then ack.
    let cfg = match conn.recv()? {
        Frame::Config(c) => c,
        other => return Err(protocol_err(format!("expected Config, got {other:?}"))),
    };
    let shards = cfg.shards as usize;
    let mut snaps: Vec<ShardSegSnapshot> = Vec::with_capacity(shards);
    for i in 0..shards {
        match conn.recv()? {
            Frame::Segment { index, snapshot } if index as usize == i => snaps.push(snapshot),
            other => return Err(protocol_err(format!("expected Segment {i}, got {other:?}"))),
        }
    }
    let (shard, strict) = (cfg.shard, cfg.strict);
    let mut replica = ShardReplica::from_config(cfg, &snaps)?;
    conn.send(&Frame::Hello { shard })?;
    conn.flush()?;

    loop {
        match conn.recv()? {
            Frame::Start { round } => worker_round(round, &mut replica, strict, &mut conn)?,
            Frame::Shutdown => return Ok(()),
            other => return Err(protocol_err(format!("expected Start, got {other:?}"))),
        }
    }
}

fn worker_round(
    r: u64,
    replica: &mut ShardReplica,
    strict: bool,
    conn: &mut FramedConn,
) -> io::Result<()> {
    let shards = replica.shards();
    let shard = replica.shard().expect("workers own a span");

    replica.apply_membership(r);
    let p = replica.propose_and_route(r);

    // Serialize and upload every (shard, owner) stream in canonical
    // order, then barrier.
    let t = Instant::now();
    for (owner, mailbox) in replica.mail_out().iter().enumerate() {
        for f in mailbox_frames(r, shard as u32, owner as u32, mailbox, MAX_FRAME_ENTRIES) {
            conn.send(&Frame::Mail(f))?;
        }
    }
    let serialize_ns = t.elapsed().as_nanos() as u64;
    conn.send(&Frame::Proposed(crate::wire::ProposedBarrier {
        round: r,
        source: shard as u32,
        proposed: p.proposed,
        propose_ns: p.propose_ns,
        route_ns: p.route_ns,
        serialize_ns,
    }))?;
    conn.flush()?;

    // Drain the broadcast; nak gaps until the round's mail is complete.
    let t = Instant::now();
    let mut asm = MailboxAssembler::for_worker(shards, shard, r, strict);
    loop {
        match conn.recv()? {
            Frame::Mail(f) => {
                asm.accept(&f).map_err(protocol_err)?;
            }
            Frame::EndMail { round } if round == r => {
                if asm.is_complete() {
                    break;
                }
                for nak in asm.missing() {
                    conn.send(&Frame::Nak(nak))?;
                }
                conn.send(&Frame::EndMail { round: r })?;
                conn.flush()?;
            }
            other => {
                return Err(protocol_err(format!(
                    "expected Mail/EndMail, got {other:?}"
                )))
            }
        }
    }
    let drain_ns = t.elapsed().as_nanos() as u64;

    // Apply the full grid — peer streams from the assembler, this
    // worker's own from its local route buffers — to the replica.
    let t = Instant::now();
    replica.apply_grid(&mut asm.into_mail());
    let apply_ns = t.elapsed().as_nanos() as u64;

    conn.send(&Frame::Done(crate::wire::DoneBarrier {
        round: r,
        source: shard as u32,
        added: replica.added()[shard],
        apply_ns,
        drain_ns,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
    }))?;
    conn.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedEngine;
    use gossip_core::rng::stream_rng;
    use gossip_core::{ChurnBursts, ComponentwiseComplete, Pull, Push};
    use gossip_graph::generators;

    fn sharded(n: usize, extra: u64, seed: u64, shards: usize) -> ShardedArenaGraph {
        let und = generators::tree_plus_random_edges(n, extra, &mut stream_rng(seed, 0, 0));
        ShardedArenaGraph::from_undirected(&und, shards)
    }

    fn assert_graphs_equal(a: &ShardedArenaGraph, b: &ShardedArenaGraph, what: &str) {
        assert_eq!(a.m(), b.m(), "{what}: edge count diverged");
        for u in a.nodes() {
            assert_eq!(a.neighbors(u), b.neighbors(u), "{what}: row {u:?} diverged");
        }
    }

    #[test]
    fn thread_transport_matches_in_process_engine() {
        let n = 3000;
        for shards in [2, 3] {
            let g = sharded(n, 2 * n as u64, 11, shards);
            let mut inproc = ShardedEngine::new(g.clone(), Pull, 77);
            let mut wire = TransportBuilder::new(g, RuleId::Pull, 77)
                .spawn()
                .expect("spawn");
            for round in 0..6 {
                assert_eq!(
                    inproc.step(),
                    wire.step(),
                    "S={shards} round={round}: stats diverged over the wire"
                );
            }
            assert_graphs_equal(inproc.graph(), wire.graph(), "thread transport");
            wire.graph().validate().unwrap();
            wire.shutdown().unwrap();
        }
    }

    #[test]
    fn lossy_transport_converges_to_the_same_graph() {
        let n = 2000;
        let g = sharded(n, n as u64, 5, 3);
        let mut inproc = ShardedEngine::new(g.clone(), Push, 9);
        let mut wire = TransportBuilder::new(g, RuleId::Push, 9)
            .with_lossy(LossyConfig {
                seed: 0xBAD,
                drop_per_mille: 120,
                dup_per_mille: 80,
                reorder: true,
            })
            .spawn()
            .expect("spawn");
        for round in 0..5 {
            assert_eq!(inproc.step(), wire.step(), "round {round}");
        }
        assert_graphs_equal(inproc.graph(), wire.graph(), "lossy transport");
        let stats = wire.stats().clone();
        assert!(
            stats.wire.frames_dropped > 0 && stats.wire.naks > 0,
            "injection never fired: {stats:?}"
        );
        assert!(stats.wire.retransmitted_frames >= stats.wire.frames_dropped);
        wire.shutdown().unwrap();
    }

    #[test]
    fn transport_runs_membership_plans_without_wire_traffic_per_round() {
        let n = 2048;
        let g = sharded(n, n as u64, 3, 2);
        let churn = ChurnBursts {
            n,
            nodes_per_burst: 32,
            bursts: 2,
            first_round: 1,
            period: 2,
            rejoin_after: 1,
            bootstrap_contacts: 3,
            seed: 21,
        };
        let plan_a = MembershipPlan::bursts(&churn);
        let plan_b = MembershipPlan::bursts(&churn);
        let mut inproc = ShardedEngine::new(g.clone(), Pull, 13).with_membership(plan_a);
        let mut wire = TransportBuilder::new(g, RuleId::Pull, 13)
            .with_membership(plan_b)
            .spawn()
            .expect("spawn");
        for round in 0..6 {
            assert_eq!(inproc.step(), wire.step(), "round {round}");
        }
        assert_graphs_equal(inproc.graph(), wire.graph(), "churn over transport");
        wire.shutdown().unwrap();
    }

    #[test]
    fn transport_drives_the_convergence_seam() {
        let und = generators::star(256);
        let g = ShardedArenaGraph::from_undirected(&und, 2);
        let mut check = ComponentwiseComplete::for_graph(&und);
        let mut wire = TransportBuilder::new(g, RuleId::Push, 4)
            .spawn()
            .expect("spawn");
        let out = wire.run_until(&mut check, 1_000_000);
        assert!(out.converged);
        assert!(wire.graph().is_complete());
        assert_eq!(out.rounds, wire.round());
        wire.shutdown().unwrap();
    }

    #[test]
    fn wire_stats_count_real_traffic() {
        let g = sharded(1500, 1500, 2, 2);
        let mut wire = TransportBuilder::new(g, RuleId::Push, 3)
            .spawn()
            .expect("spawn");
        wire.step();
        wire.step();
        let s = wire.stats().clone();
        assert!(s.wire.frames_sent > 0 && s.wire.frames_received > 0);
        assert!(
            s.wire.bytes_sent > s.wire.frames_sent,
            "length prefixes alone exceed this"
        );
        assert_eq!(s.wire.frames_dropped, 0, "deterministic mode never drops");
        assert_eq!(s.recovered_rounds, 0);
        assert!(s.worker_peak_rss_bytes.iter().all(|&b| b > 0));
        wire.shutdown().unwrap();
    }
}
