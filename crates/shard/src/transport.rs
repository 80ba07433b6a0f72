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
//! # Bootstrap
//!
//! The supervisor sends each worker the bootstrap stream
//! [`ShardReplica::send_bootstrap`] writes for both carriers — `Config`,
//! then every segment's rows, read from the live segments, in
//! `SnapshotChunk`s of at most [`MAX_FRAME_ENTRIES`] entries — and waits
//! for the worker's `Hello`: the replica is built and its rows checked
//! ([`ShardReplica::bootstrap`]), and rounds may start.
//!
//! # One round on the wire
//!
//! 1. supervisor → workers: `Start{round}`; each side applies due
//!    membership events locally (the plan was shipped in `Config`, so
//!    churn costs zero wire bytes per round).
//! 2. worker `s`: propose own span, route, serialize each `(s, owner)`
//!    mailbox into `Mail` frames, upload, then barrier with `Proposed`.
//! 3. supervisor: reassemble uploads, broadcast each `(source, owner)`
//!    stream to every worker except its source, in canonical
//!    `(source, owner, seq)` order, then `EndMail`.
//! 4. worker: reassemble, asserting that order frame by frame; an
//!    `EndMail` before the round's mail is complete is a protocol error.
//!    Then apply all mail to the replica and barrier with
//!    `Done{added, timings, peak RSS}`.
//! 5. supervisor: apply the same grid to its own graph and cross-check
//!    each worker's `added` against its own per-segment count.
//!
//! Workers tag half-edges with slots local to their own source stream.
//! That is safe because the merge
//! ([`gossip_graph::SegCommit::apply_half_edges`]) groups a row's
//! half-edges in arrival order, keeps one of each and never reads a slot
//! — the one it keeps decides nothing.
//! Hence no global slot prefix-sum synchronization round is needed, and
//! the result is bit-identical to [`ShardedEngine`](crate::ShardedEngine) and the
//! sequential engine for any `(S, mode, thread count)` — pinned by the
//! determinism suite.
//!
//! A stream socket cannot lose a byte, so this carrier has no repair
//! protocol. Seeded carrier faults live on the one layer that repairs real
//! loss: the datagram window of `gossip-cluster` (`DatagramLoss`), which
//! is also where the CLI's `--transport lossy` runs.
//!
//! The round itself — the supervisor's `try_step`, the worker loop, the
//! replica round body — is [`driver`](crate::driver)'s, shared with the
//! datagram transport; this module is the carrier: [`HubLink`], one value
//! per end of a Unix-socket connection. The supervisor's end owns no
//! span: it only relays, then applies.
//!
//! # Modes
//!
//! [`TransportMode::Thread`] runs each worker as an OS thread on a
//! socketpair — same serialized wire path, no exec, usable under the
//! normal test harness. [`TransportMode::Process`] re-execs the current
//! binary for each worker; the child detects [`WORKER_SOCKET_ENV`] via
//! [`maybe_run_worker`], which binaries embedding this engine must call
//! at the top of `main` (the CLI, `run_all`, and the `uds_process`
//! integration test all do). **Never use `Process` mode from a default
//! libtest harness** — the re-execed child would be the test harness
//! itself and would run the whole test suite instead of a worker.

use crate::driver::{
    protocol_err, run_shard, run_shard_process, RoundInbox, ShardLink, ShardReplica,
    ShardRoundDriver, Workers,
};
use crate::framed::FramedConn;
use crate::wire::{mailbox_frames, Frame, MailboxAssembler, WireStats, MAX_FRAME_ENTRIES};
use bytes::BytesMut;
use gossip_core::{MembershipPlan, Parallelism, RuleId};
use gossip_graph::{HalfEdge, ShardedArenaGraph};
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

/// Transport-level counters for a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Wire counters (supervisor's viewpoint).
    pub wire: WireStats,
    /// Peak RSS reported by each worker in its latest `Done` barrier. In
    /// process mode these are genuine per-process high-water marks.
    pub worker_peak_rss_bytes: Vec<u64>,
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

    /// Spawns the workers, ships bootstrap state (config, membership
    /// schedule, segment snapshot chunks), and returns the running engine.
    pub fn spawn(self) -> io::Result<TransportEngine> {
        let shards = self.graph.shard_count();

        // `workers` before `conns`: should a later step fail, the
        // connections close first and the lifecycle cleans up after.
        let mut workers = Workers::default();
        let mut conns = Vec::with_capacity(shards);
        for s in 0..shards {
            let stream = match self.mode {
                TransportMode::Thread => {
                    let (sup, wrk) = UnixStream::pair()?;
                    workers.spawn_thread(format!("gossip-worker-{s}"), move || {
                        run_shard(HubLink::worker(wrk)?)
                    })?;
                    sup
                }
                TransportMode::Process => workers.spawn_process_on_socket(
                    &mut Command::new(std::env::current_exe()?),
                    WORKER_SOCKET_ENV,
                )?,
            };
            conns.push(FramedConn::from_stream(stream)?);
        }
        let mut link = HubLink::over(conns);
        link.workers = workers;
        self.bootstrap(link)
    }

    /// Ships bootstrap state to the workers `link` reaches, one per
    /// connection in shard order, and returns the running engine.
    fn bootstrap(self, mut link: HubLink) -> io::Result<TransportEngine> {
        let shards = link.conns.len();
        let replica = ShardReplica::new(
            self.graph,
            self.rule,
            self.seed,
            self.parallelism,
            self.membership,
            0..0,
        );
        link.stats.worker_peak_rss_bytes = vec![0; shards];

        // Bootstrap each worker: Config, then every segment's chunk stream,
        // then wait for its Hello ack.
        replica.send_bootstrap(0..shards, MAX_FRAME_ENTRIES, |s, frame| link.send(s, frame))?;
        for s in 0..shards {
            link.flush(s)?;
        }
        for s in 0..shards {
            match link.recv(s)? {
                Frame::Hello { shard } if shard as usize == s => {}
                other => {
                    return Err(protocol_err(format!(
                        "worker {s}: expected Hello, got {other:?}"
                    )))
                }
            }
        }
        Ok(ShardRoundDriver::new(replica, link))
    }
}

/// The supervisor half of the cross-process transport: a
/// [`ShardRoundDriver`] over a [`HubLink`].
pub type TransportEngine = ShardRoundDriver<HubLink>;

/// One `(source, owner)` mail frame, encoded once and broadcast to every
/// non-source destination.
struct EncodedMail {
    source: u32,
    bytes: Vec<u8>,
}

/// What the worker end learns from its bootstrap `Config`.
#[derive(Clone, Copy, Debug)]
struct WorkerEnd {
    shard: usize,
    shards: usize,
}

/// One end of the stream carrier. The **supervisor's** end holds a
/// connection per worker and relays: every mail byte crosses it, so this
/// is where [`TransportStats`] are counted. A **worker's** end holds the
/// single connection to the supervisor.
#[derive(Debug)]
pub struct HubLink {
    /// Supervisor end: one connection per worker, in shard order. Worker
    /// end: the connection to the supervisor. Declared before `workers`
    /// so a failed engine closes them first and thread-mode workers see
    /// EOF.
    conns: Vec<FramedConn>,
    /// `Some` at a worker's end, once bootstrapped.
    worker: Option<WorkerEnd>,
    workers: Workers,
    stats: TransportStats,
    enc: BytesMut,
    /// `true` at a worker's end, from before its bootstrap: names the far
    /// end in errors.
    at_worker: bool,
}

impl HubLink {
    /// A supervisor's end over `conns`, with no workers yet.
    fn over(conns: Vec<FramedConn>) -> HubLink {
        HubLink {
            conns,
            worker: None,
            workers: Workers::default(),
            stats: TransportStats::default(),
            enc: BytesMut::new(),
            at_worker: false,
        }
    }

    /// A worker's end, over its connection to the supervisor.
    fn worker(stream: UnixStream) -> io::Result<HubLink> {
        let mut link = HubLink::over(vec![FramedConn::from_stream(stream)?]);
        link.at_worker = true;
        Ok(link)
    }

    /// `e`, its kind kept, naming the far end of connection `s`: a lost
    /// peer otherwise reads as a bare `failed to fill whole buffer`.
    fn far_end(&self, s: usize, e: io::Error) -> io::Error {
        let far = if self.at_worker {
            "supervisor".to_string()
        } else {
            format!("shard {s}")
        };
        io::Error::new(e.kind(), format!("{far}: {e}"))
    }

    /// Transport counters so far (supervisor's viewpoint).
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    fn send(&mut self, s: usize, frame: &Frame) -> io::Result<()> {
        let bytes = self.conns[s].send(frame).map_err(|e| self.far_end(s, e))?;
        self.stats.wire.frames_sent += 1;
        self.stats.wire.bytes_sent += bytes;
        Ok(())
    }

    fn send_raw(&mut self, s: usize, bytes: &[u8]) -> io::Result<()> {
        self.conns[s]
            .send_raw(bytes)
            .map_err(|e| self.far_end(s, e))?;
        self.stats.wire.frames_sent += 1;
        self.stats.wire.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    fn recv(&mut self, s: usize) -> io::Result<Frame> {
        let frame = self.conns[s].recv().map_err(|e| self.far_end(s, e))?;
        self.stats.wire.frames_received += 1;
        self.stats.wire.bytes_received += self.conns[s].last_recv_bytes();
        Ok(frame)
    }

    fn flush(&mut self, s: usize) -> io::Result<()> {
        self.conns[s].flush().map_err(|e| self.far_end(s, e))
    }

    /// The supervisor's `collect`: reassemble every worker's upload,
    /// broadcast, then gather the `Done` barriers.
    fn relay(&mut self, r: u64) -> io::Result<RoundInbox> {
        let shards = self.conns.len();
        let mut inbox = RoundInbox::new(
            r,
            MailboxAssembler::for_relay(shards, r),
            vec![true; shards],
        );

        // Uploads: each worker sends its S mailbox streams in canonical
        // order, then a Proposed barrier. Each mail frame is encoded once
        // here, for every destination it will be forwarded to.
        let mut encoded: Vec<EncodedMail> = Vec::new();
        for s in 0..shards {
            while inbox.owes_proposed(s) {
                let frame = self.recv(s)?;
                if let Frame::Mail(f) = &frame {
                    self.enc.clear();
                    frame.encode(&mut self.enc);
                    encoded.push(EncodedMail {
                        source: f.source,
                        bytes: self.enc.to_vec(),
                    });
                }
                inbox.accept(s, frame)?;
            }
        }

        let t = Instant::now();
        self.broadcast(r, &encoded)?;
        inbox.add_flush_ns(t.elapsed().as_nanos() as u64);

        // Apply barriers.
        for d in 0..shards {
            while inbox.owes_done(d) {
                let frame = self.recv(d)?;
                inbox.accept(d, frame)?;
            }
            let peak = &mut self.stats.worker_peak_rss_bytes[d];
            *peak = (*peak).max(inbox.done(d).map_or(0, |b| b.peak_rss_bytes));
        }
        Ok(inbox)
    }

    /// Delivers each (source, owner) stream to every non-source
    /// destination in canonical order, then `EndMail`.
    fn broadcast(&mut self, r: u64, encoded: &[EncodedMail]) -> io::Result<()> {
        for d in 0..self.conns.len() {
            for e in encoded.iter().filter(|e| e.source as usize != d) {
                self.send_raw(d, &e.bytes)?;
            }
            self.send(d, &Frame::EndMail { round: r })?;
            self.flush(d)?;
        }
        Ok(())
    }

    /// A worker's `collect`: drain the broadcast up to its `EndMail`,
    /// which must find the round's mail complete.
    fn assemble(&mut self, r: u64, w: WorkerEnd) -> io::Result<RoundInbox> {
        let asm = MailboxAssembler::for_worker(w.shards, w.shard, r, true);
        let mut inbox = RoundInbox::new(r, asm, vec![false; w.shards]);
        loop {
            match self.recv(0)? {
                Frame::Mail(f) => inbox.accept_mail(&f)?,
                Frame::EndMail { round } if round == r && inbox.mail_complete() => {
                    return Ok(inbox)
                }
                // The supervisor stopping mid-round: the inbox ends the round.
                frame @ Frame::Shutdown => inbox.accept(0, frame)?,
                other => {
                    return Err(protocol_err(format!(
                        "shard {}, round {r}: expected Mail, or EndMail once the mail is \
                         complete, got {other:?}",
                        w.shard
                    )))
                }
            }
        }
    }
}

impl ShardLink for HubLink {
    fn bootstrap(&mut self) -> io::Result<ShardReplica> {
        let replica = ShardReplica::bootstrap(|| self.recv(0))?;
        // `bootstrap` builds its replica on the one span `shard..shard + 1`.
        #[expect(clippy::expect_used, reason = "`bootstrap` builds one span")]
        let shard = replica.shard().expect("a bootstrapped replica has a span");
        self.worker = Some(WorkerEnd {
            shard,
            shards: replica.shards(),
        });
        self.report(&Frame::Hello {
            shard: shard as u32,
        })?;
        Ok(replica)
    }

    fn next_round(&mut self) -> io::Result<Option<u64>> {
        match self.recv(0)? {
            Frame::Start { round } => Ok(Some(round)),
            Frame::Shutdown => Ok(None),
            other => Err(protocol_err(format!("expected Start, got {other:?}"))),
        }
    }

    fn start(&mut self, round: u64) -> io::Result<()> {
        for s in 0..self.conns.len() {
            self.send(s, &Frame::Start { round })?;
            self.flush(s)?;
        }
        Ok(())
    }

    fn stop(&mut self) -> io::Result<()> {
        for s in 0..self.conns.len() {
            let _ = self.send(s, &Frame::Shutdown);
            let _ = self.flush(s);
        }
        self.workers.reap()
    }

    /// Uploads every `(shard, owner)` stream in canonical order; the
    /// `Proposed` barrier that follows flushes them.
    fn publish(&mut self, round: u64, shard: usize, mail_out: &[Vec<HalfEdge>]) -> io::Result<()> {
        for (owner, mailbox) in mail_out.iter().enumerate() {
            for f in mailbox_frames(
                round,
                shard as u32,
                owner as u32,
                mailbox,
                MAX_FRAME_ENTRIES,
            ) {
                self.send(0, &Frame::Mail(f))?;
            }
        }
        Ok(())
    }

    fn report(&mut self, barrier: &Frame) -> io::Result<()> {
        self.send(0, barrier)?;
        self.flush(0)
    }

    fn collect(&mut self, round: u64) -> io::Result<RoundInbox> {
        match self.worker {
            Some(w) => self.assemble(round, w),
            None => self.relay(round),
        }
    }
}

/// If [`WORKER_SOCKET_ENV`] is set, runs this process as a shard worker
/// against that socket and exits; otherwise returns immediately. Binaries
/// that may host [`TransportMode::Process`] workers — the CLI,
/// `run_all`, the `uds_process` test — call this first thing in
/// `main`.
pub fn maybe_run_worker() {
    if let Ok(path) = std::env::var(WORKER_SOCKET_ENV) {
        run_shard_process(UnixStream::connect(&path).and_then(HubLink::worker));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedEngine;
    use gossip_core::rng::stream_rng;
    use gossip_core::{run_engine_until, ChurnBursts, ComponentwiseComplete, Pull};
    use gossip_graph::{generators, NodeId};

    fn sharded(n: usize, extra: u64, seed: u64, shards: usize) -> ShardedArenaGraph {
        let und = generators::tree_plus_random_edges(n, extra, &mut stream_rng(seed, 0, 0));
        ShardedArenaGraph::from_arena(&und, shards)
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
                    wire.try_step(None).unwrap(),
                    "S={shards} round={round}: stats diverged over the wire"
                );
            }
            assert_graphs_equal(inproc.graph(), wire.graph(), "thread transport");
            wire.graph().validate().unwrap();
            wire.shutdown().unwrap();
        }
    }

    #[test]
    fn bootstrap_chunks_carry_tombstoned_rows_and_segments_of_many_chunks() {
        let n = 3000;
        let mut g = sharded(n, 2 * n as u64, 5, 2);
        for u in (0..n as u32).step_by(97) {
            g.remove_member(NodeId(u));
        }
        let entries = g.segment(0).half_edge_count();
        assert!(
            entries > 2 * MAX_FRAME_ENTRIES,
            "{entries} entries: one chunk"
        );
        let mut inproc = ShardedEngine::new(g.clone(), Pull, 31);
        let mut wire = TransportBuilder::new(g, RuleId::Pull, 31)
            .spawn()
            .expect("spawn");
        for round in 0..4 {
            assert_eq!(inproc.step(), wire.try_step(None).unwrap(), "round {round}");
        }
        assert_graphs_equal(inproc.graph(), wire.graph(), "tombstoned bootstrap");
        wire.graph().validate().unwrap();
        wire.shutdown().unwrap();
    }

    #[test]
    fn an_endmail_before_the_rounds_mail_is_complete_is_a_protocol_error() {
        let (sup, wrk) = UnixStream::pair().unwrap();
        let mut sup = FramedConn::from_stream(sup).unwrap();
        sup.send(&Frame::EndMail { round: 3 }).unwrap();
        sup.flush().unwrap();
        let mut link = HubLink::worker(wrk).unwrap();
        let end = WorkerEnd {
            shard: 1,
            shards: 2,
        };
        let err = link
            .assemble(3, end)
            .expect_err("shard 0's mail never came");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        assert!(msg.contains("shard 1") && msg.contains("round 3"), "{msg}");
    }

    #[test]
    fn a_shutdown_before_the_rounds_mail_ends_the_worker_cleanly() {
        let (sup, wrk) = UnixStream::pair().unwrap();
        let mut sup = FramedConn::from_stream(sup).unwrap();
        let policy = Parallelism::Sequential;
        let replica = ShardReplica::new(sharded(64, 64, 3, 2), RuleId::Pull, 5, policy, None, 0..0);
        replica
            .send_bootstrap(1..2, MAX_FRAME_ENTRIES, |_, f| sup.send(f).map(drop))
            .unwrap();
        sup.send(&Frame::Start { round: 0 }).unwrap();
        sup.send(&Frame::Shutdown).unwrap();
        sup.flush().unwrap();
        run_shard(HubLink::worker(wrk).unwrap()).expect("a stop mid-round is orderly");
        assert_eq!(sup.recv().unwrap(), Frame::Hello { shard: 1 });
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
            assert_eq!(inproc.step(), wire.try_step(None).unwrap(), "round {round}");
        }
        assert_graphs_equal(inproc.graph(), wire.graph(), "churn over transport");
        wire.shutdown().unwrap();
    }

    #[test]
    fn transport_drives_the_convergence_seam() {
        let und = generators::star(256);
        let g = ShardedArenaGraph::from_arena(&und, 2);
        let mut check = ComponentwiseComplete::for_graph(&und);
        let mut wire = TransportBuilder::new(g, RuleId::Push, 4)
            .spawn()
            .expect("spawn");
        let out = run_engine_until(&mut wire, &mut check, 1_000_000).unwrap();
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
        wire.try_step(None).unwrap();
        wire.try_step(None).unwrap();
        let s = wire.stats().clone();
        assert!(s.wire.frames_sent > 0 && s.wire.frames_received > 0);
        assert!(
            s.wire.bytes_sent > s.wire.frames_sent,
            "length prefixes alone exceed this"
        );
        assert!(s.worker_peak_rss_bytes.iter().all(|&b| b > 0));
        wire.shutdown().unwrap();
    }

    /// Thread-mode workers over socketpairs, as `spawn` makes them, with
    /// the supervisor's end of each stream also handed back to the test.
    fn spawn_keeping_hub_ends(g: ShardedArenaGraph) -> (TransportEngine, Vec<UnixStream>) {
        let mut link = HubLink::over(Vec::new());
        let mut hub_ends = Vec::new();
        for s in 0..g.shard_count() {
            let (sup, wrk) = UnixStream::pair().unwrap();
            let body = move || run_shard(HubLink::worker(wrk)?);
            link.workers.spawn_thread(format!("w{s}"), body).unwrap();
            hub_ends.push(sup.try_clone().unwrap());
            link.conns.push(FramedConn::from_stream(sup).unwrap());
        }
        let wire = TransportBuilder::new(g, RuleId::Push, 3).bootstrap(link);
        (wire.unwrap(), hub_ends)
    }

    #[test]
    fn a_worker_lost_between_rounds_fails_the_next_round_and_is_reaped() {
        for explicit_shutdown in [true, false] {
            let (mut wire, hub_ends) = spawn_keeping_hub_ends(sharded(1500, 1500, 2, 2));
            wire.try_step(None).unwrap();
            hub_ends[1].shutdown(std::net::Shutdown::Both).unwrap();
            let t = Instant::now();
            let err = wire.try_step(None).expect_err("shard 1 is gone");
            assert!(err.to_string().starts_with("shard 1: "), "{err}");
            if explicit_shutdown {
                // Shard 1's worker lost its stream and ends in error;
                // shard 0's is stopped mid-round and ends cleanly.
                assert!(wire.shutdown().is_err());
            }
            drop(wire);
            // Well inside any receive timeout: nobody waited on a peer.
            assert!(t.elapsed() < std::time::Duration::from_secs(10));
        }
    }
}
