//! The shard round, written once.
//!
//! Every engine in this workspace runs the same round — propose against
//! `G_t`, route half-edges to their owner shards, merge each owner's
//! column — and this module holds the one copy of each step:
//!
//! * [`ShardReplica`], the round's state and the only code that
//!   proposes, routes and applies it, shared by every sharded engine: the
//!   in-process [`ShardedEngine`](crate::ShardedEngine) is a replica that
//!   owns every span, a cross-process participant one that owns one span
//!   or none. It also writes and reads the bootstrap stream that copies
//!   it to a worker: `Config` plus every segment's rows in
//!   `SnapshotChunk`s; the sender reads them from its live segments, the
//!   receiver appends them straight into the segments it rebuilds and
//!   checks them, like received mail, before the replica exists;
//! * [`ShardRoundDriver`], the coordinator every cross-process engine is
//!   (`try_step`, accessors, the [`RoundEngine`] impl, shutdown), and
//!   [`run_shard`], the loop every worker runs;
//! * [`RoundInbox`], the one place that says which frames are legal in a
//!   round;
//! * [`Workers`], the thread/process lifecycle.
//!
//! What differs between carriers — Unix-socket streams through a
//! supervisor ([`HubLink`](crate::transport::HubLink)), UDP datagrams
//! peer-to-peer (`gossip_cluster::MeshLink`) — sits behind [`ShardLink`].

use crate::wire::{DoneBarrier, Frame, MailFrame, MailboxAssembler, ProposedBarrier, WorkerConfig};
use gossip_core::engine::{propose_chunk_range, PROPOSAL_CHUNK};
use gossip_core::listener::{PhaseEvent, PhaseNanos, RoundListener, RoundPhase};
use gossip_core::seam::RoundEngine;
use gossip_core::{
    MembershipPlan, MembershipStats, Parallelism, ProposalRule, RoundStats, RuleId, TaggedProposal,
};
use gossip_graph::{
    HalfEdge, MergeScratch, SegCommit, SegSnapshotAssembler, ShardPlan, ShardedArenaGraph,
};
use rayon::prelude::*;
use std::io;
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An `InvalidData` error for a peer that broke the round protocol.
pub fn protocol_err(msg: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Linux peak RSS (`VmHWM`) of the calling process, in bytes, if the
/// platform exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Records one round's phase times, in the order given, into `phases`,
/// and forwards each as a [`PhaseEvent`] to `listener` — the one emitter
/// of every sharded engine.
pub(crate) fn record_phases(
    phases: &mut PhaseNanos,
    mut listener: Option<&mut dyn RoundListener<ShardedArenaGraph>>,
    round: u64,
    times: &[(RoundPhase, u64)],
) {
    for &(phase, nanos) in times {
        let ev = PhaseEvent {
            round,
            phase,
            nanos,
        };
        phases.absorb(&ev);
        if let Some(l) = listener.as_deref_mut() {
            l.on_phase(&ev);
        }
    }
}

/// Routes the proposals of the chunks in `span` into per-owner mailboxes
/// (cleared first): each proposal `(u, a, b)` becomes the half-edge
/// `(a, b)` in `boxes[owner(a)]` and `(b, a)` in `boxes[owner(b)]`, tagged
/// with its `u32` slot in the span's own node-order stream.
///
/// Slots are local to the source span. That is safe because the merge
/// ([`SegCommit::apply_half_edges`]) never reads one: it groups a row's
/// half-edges in arrival order and keeps one of each, so the slot of the
/// one it keeps decides nothing.
fn route_span(
    plan: &ShardPlan,
    chunk_bufs: &[Vec<TaggedProposal>],
    span: Range<usize>,
    boxes: &mut [Vec<HalfEdge>],
) {
    for b in boxes.iter_mut() {
        b.clear();
    }
    let mut base = 0u32;
    for buf in &chunk_bufs[span] {
        for (i, &(_, a, b)) in buf.iter().enumerate() {
            let here = base + i as u32;
            if a == b {
                continue;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            boxes[plan.owner(lo)].push((here, lo, hi));
            boxes[plan.owner(hi)].push((here, hi, lo));
        }
        base += buf.len() as u32;
    }
}

/// One owner shard's apply-phase work unit: `(shard index, its segment's
/// commit, its merge scratch, its added-count slot)` — disjoint borrows the
/// pool fans out with no aliasing.
type ShardWork<'a> = (usize, SegCommit<'a>, &'a mut MergeScratch, &'a mut u64);

/// One participant's state for the sharded round, and the only code that
/// proposes, routes and applies one: a **full replica** of `G_t` (a Pull
/// proposal is a two-hop walk through arbitrary rows, so shard-local
/// state is not enough to propose), the rule and seed every replica
/// replays, the membership schedule, the whole `mail[source][owner]` grid
/// and the reusable round buffers. What is split is the *work*: a replica
/// proposes and routes only the contiguous range of source spans it owns,
/// then applies the whole round's grid. It owns
///
/// * every span in the in-process [`ShardedEngine`](crate::ShardedEngine);
/// * one span at a cross-process worker and at the datagram coordinator;
/// * none at the stream transport's supervisor, which only relays.
///
/// Only a [`RuleId`] crosses the wire, so the bootstrap stream is
/// `ShardReplica<RuleId>`'s alone.
#[derive(Debug)]
pub struct ShardReplica<R = RuleId> {
    graph: ShardedArenaGraph,
    rule: R,
    seed: u64,
    /// Set by [`ShardedEngine`](crate::ShardedEngine)'s builder methods
    /// as well as here.
    pub(crate) parallel: bool,
    pub(crate) membership: MembershipPlan,
    /// The source spans this replica proposes and routes.
    spans: Range<usize>,
    chunk_bufs: Vec<Vec<TaggedProposal>>,
    /// `mail[source][owner]`: the owned sources' routed half-edges,
    /// reused across rounds (the other sources' rows stay empty: their
    /// mail is received).
    mail: Vec<Vec<Vec<HalfEdge>>>,
    scratch: Vec<MergeScratch>,
    added: Vec<u64>,
}

impl<R: ProposalRule<ShardedArenaGraph>> ShardReplica<R> {
    /// A replica over `graph` (its shard count fixes the grid) proposing
    /// the source spans in `spans`.
    pub fn new(
        graph: ShardedArenaGraph,
        rule: R,
        seed: u64,
        parallelism: Parallelism,
        membership: Option<MembershipPlan>,
        spans: Range<usize>,
    ) -> Self {
        let shards = graph.shard_count();
        assert!(
            spans.end <= shards,
            "spans {spans:?} outside a grid of {shards}"
        );
        ShardReplica {
            rule,
            seed,
            parallel: parallelism.engages(graph.n()),
            membership: membership.unwrap_or_else(|| MembershipPlan::new(Vec::new())),
            spans,
            chunk_bufs: vec![Vec::new(); graph.n().div_ceil(PROPOSAL_CHUNK)],
            mail: vec![vec![Vec::new(); shards]; shards],
            scratch: vec![MergeScratch::default(); shards],
            added: vec![0; shards],
            graph,
        }
    }

    /// The replica's current graph `G_t`.
    #[inline]
    pub fn graph(&self) -> &ShardedArenaGraph {
        &self.graph
    }

    /// Consumes the replica, returning its graph.
    pub(crate) fn into_graph(self) -> ShardedArenaGraph {
        self.graph
    }

    /// Number of shards in the grid.
    #[inline]
    pub fn shards(&self) -> usize {
        self.mail.len()
    }

    /// The span this replica proposes, if it owns exactly one — what a
    /// cross-process participant that publishes mail owns.
    pub fn shard(&self) -> Option<usize> {
        (self.spans.len() == 1).then_some(self.spans.start)
    }

    /// The routed grid, `mail[source][owner]`, as of the last
    /// [`ShardReplica::propose_and_route`]: the owned sources' rows.
    pub fn mail(&self) -> &[Vec<Vec<HalfEdge>>] {
        &self.mail
    }

    /// Per-segment new-canonical-edge counts of the last
    /// [`ShardReplica::apply_mail`].
    pub fn added(&self) -> &[u64] {
        &self.added
    }

    /// Applies the membership events due at `round` — the same
    /// pre-increment round key as every other engine.
    pub fn apply_membership(&mut self, round: u64) -> MembershipStats {
        self.membership.apply_due(round, &mut self.graph)
    }

    /// Proposes the owned spans' chunks against `G_t` — the sequential
    /// engine's chunk phase, restricted to them — and routes each owned
    /// source into its row of the grid, in parallel over spans when the
    /// policy engages. Returns the `Proposed` barrier that describes it
    /// (its `serialize_ns` still zero: nothing is encoded yet). The
    /// restricted propose fills exactly the buffers the full phase would
    /// (RNG streams are keyed by `(seed, round, node)` alone).
    ///
    /// # Panics
    /// Panics if the owned proposal stream overflows the `u32` slots
    /// half-edges carry.
    pub fn propose_and_route(&mut self, round: u64) -> ProposedBarrier {
        let plan = *self.graph.plan();
        // Spans are contiguous chunk ranges and `chunk_span(shards)` starts
        // at the last chunk's end, so this is the owned spans' chunks.
        let chunks = plan.chunk_span(self.spans.start).start..plan.chunk_span(self.spans.end).start;
        let t = Instant::now();
        propose_chunk_range(
            &self.graph,
            &self.rule,
            self.seed,
            round,
            &mut self.chunk_bufs,
            chunks.clone(),
            self.parallel,
        );
        let propose_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let proposed: u64 = self.chunk_bufs[chunks].iter().map(|b| b.len() as u64).sum();
        assert!(
            proposed < u32::MAX as u64,
            "round proposal stream overflows u32 slots"
        );
        let (first, chunk_bufs) = (self.spans.start, &self.chunk_bufs);
        let route = |(i, boxes): (usize, &mut Vec<Vec<HalfEdge>>)| {
            route_span(&plan, chunk_bufs, plan.chunk_span(first + i), boxes);
        };
        let owned = &mut self.mail[self.spans.clone()];
        if self.parallel {
            owned.par_iter_mut().enumerate().for_each(route);
        } else {
            owned.iter_mut().enumerate().for_each(route);
        }
        ProposedBarrier {
            round,
            source: first as u32,
            proposed,
            propose_ns,
            route_ns: t.elapsed().as_nanos() as u64,
            serialize_ns: 0,
        }
    }

    /// Merges the round's grid into the replica: owner `t` merges its
    /// column `mail[0][t], mail[1][t], …` — fixed source order — into its
    /// own segment, shard-parallel when the policy engages, no locks and
    /// no cross-shard writes. A segment a published snapshot still shares
    /// is rebuilt by that merge rather than copied and then merged
    /// ([`SegCommit::apply_half_edges`]). The owned sources' rows are the
    /// replica's own; `received[s]` holds the row of every other source
    /// `s` (as a [`MailboxAssembler`] hands it back — a replica that owns
    /// every span receives nothing, and passes `&[]`).
    ///
    /// Received mail is outside input, and the merge indexes rows with
    /// it: a half-edge whose row its owner does not hold, or whose other
    /// endpoint is no node, is an `InvalidData` error naming the source
    /// shard, found before anything is merged.
    pub fn apply_mail(&mut self, received: &[Vec<Vec<HalfEdge>>]) -> io::Result<()> {
        let (plan, spans, mail) = (*self.graph.plan(), &self.spans, &self.mail);
        let row = |s: usize| {
            if spans.contains(&s) {
                &mail[s]
            } else {
                &received[s]
            }
        };
        for source in (0..received.len()).filter(|s| !spans.contains(s)) {
            for (owner, mailbox) in received[source].iter().enumerate() {
                let span = plan.span(owner);
                let stray = |&&(_, row, other): &&HalfEdge| {
                    !span.contains(&row.index()) || other.index() >= plan.n()
                };
                if let Some((_, row, other)) = mailbox.iter().find(stray) {
                    return Err(protocol_err(format!(
                        "shard {source} sent half-edge ({row:?}, {other:?}) to owner {owner} \
                         of rows {span:?} (n = {})",
                        plan.n()
                    )));
                }
            }
        }

        // The copy-on-write commit: a segment an epoch snapshot still
        // shares is rebuilt by its merge, one the graph alone holds merges
        // in place, and one that gets no mail stays as it is.
        let mut work: Vec<ShardWork<'_>> = self
            .graph
            .segment_commits()
            .into_iter()
            .zip(self.scratch.iter_mut())
            .zip(self.added.iter_mut())
            .enumerate()
            .map(|(t, ((commit, scratch), added))| (t, commit, scratch, added))
            .collect();
        let apply = |(t, commit, scratch, added): &mut ShardWork<'_>| {
            let sources: Vec<&[HalfEdge]> =
                (0..mail.len()).map(|s| row(s)[*t].as_slice()).collect();
            **added = commit.apply_half_edges(&sources, scratch);
        };
        if self.parallel {
            work.par_iter_mut().for_each(apply);
        } else {
            work.iter_mut().for_each(apply);
        }
        Ok(())
    }
}

impl ShardReplica<RuleId> {
    /// The worker-side constructor, the same over every carrier: reads the
    /// coordinator's bootstrap stream from `next_frame` — `Config`, then
    /// each segment as a `SnapshotChunk` stream, segments in shard order —
    /// and rebuilds the coordinator's state from it, each chunk's rows
    /// appended straight into the segment they rebuild. Whatever else a
    /// carrier may legally deliver meanwhile is `next_frame`'s to set
    /// aside; any other frame here is a protocol error.
    ///
    /// The rows are outside input, and every later round samples and
    /// looks them up: a row that is not strictly ascending, holds its own
    /// node, names a node `≥ n`, or has a capacity no row of an `n`-node
    /// graph reaches is an `InvalidData` error naming the segment and the
    /// row, raised by the assembler before anything is allocated for the
    /// row. (Symmetry is left to the per-round `added` cross-check, which
    /// a diverged replica fails.)
    pub fn bootstrap(mut next_frame: impl FnMut() -> io::Result<Frame>) -> io::Result<Self> {
        let cfg = match next_frame()? {
            Frame::Config(c) if c.shard < c.shards => c,
            other => {
                return Err(protocol_err(format!(
                    "expected the Config of a shard of its grid, got {other:?}"
                )))
            }
        };
        let mut segs = Vec::new();
        for s in 0..cfg.shards {
            let mut asm = SegSnapshotAssembler::new(cfg.n as usize);
            loop {
                match next_frame()? {
                    Frame::SnapshotChunk { segment, chunk } if segment == s => {
                        let done = asm
                            .accept(&chunk)
                            .map_err(|e| protocol_err(format!("segment {s} sent {e}")))?;
                        if done {
                            break;
                        }
                    }
                    other => {
                        return Err(protocol_err(format!(
                            "expected a chunk of segment {s}, got {other:?}"
                        )))
                    }
                }
            }
            segs.push(asm.finish());
        }
        let graph = ShardedArenaGraph::from_segments(cfg.n as usize, cfg.shards as usize, segs)
            .map_err(protocol_err)?;
        let parallelism = if cfg.parallel {
            Parallelism::Parallel
        } else {
            Parallelism::Sequential
        };
        Ok(ShardReplica::new(
            graph,
            cfg.rule,
            cfg.seed,
            parallelism,
            Some(MembershipPlan::new(cfg.events)),
            cfg.shard as usize..cfg.shard as usize + 1,
        ))
    }

    /// The coordinator-side counterpart, the same over every carrier:
    /// hands `send` the bootstrap stream of each of `workers` — the
    /// `Config` that makes it a copy of this replica, then every segment
    /// in chunks of at most `chunk_entries` adjacency entries, each read
    /// from the live rows as it is sent. Returns the number of chunks.
    pub fn send_bootstrap(
        &self,
        workers: Range<usize>,
        chunk_entries: usize,
        mut send: impl FnMut(usize, &Frame) -> io::Result<()>,
    ) -> io::Result<u64> {
        let mut chunks = 0;
        for d in workers {
            send(d, &Frame::Config(self.worker_config(d)))?;
            for segment in 0..self.shards() as u32 {
                for chunk in self.graph.segment(segment as usize).chunks(chunk_entries) {
                    send(d, &Frame::SnapshotChunk { segment, chunk })?;
                    chunks += 1;
                }
            }
        }
        Ok(chunks)
    }

    /// The bootstrap `Config` that makes worker `shard` a copy of this
    /// replica (the segments travel separately).
    fn worker_config(&self, shard: usize) -> WorkerConfig {
        WorkerConfig {
            shard: shard as u32,
            shards: self.shards() as u32,
            n: self.graph.n() as u64,
            seed: self.seed,
            rule: self.rule,
            parallel: self.parallel,
            events: self.membership.events().to_vec(),
        }
    }
}

/// How long [`Workers::spawn_process_on_socket`] waits for a re-execed
/// child to connect back before giving up on it.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
enum WorkerHandle {
    Thread(JoinHandle<io::Result<()>>),
    Process(Child),
}

/// The worker lifecycle, for either carrier and either hosting mode:
/// starts shard workers as OS threads or as re-execed child processes,
/// and reaps them. Whatever was started and never reaped — a spawn that
/// failed half-way, an engine dropped after a failed round — is cleaned
/// up on drop: children are killed and waited for, socket files unlinked.
#[derive(Debug, Default)]
pub struct Workers {
    handles: Vec<WorkerHandle>,
    socket_paths: Vec<PathBuf>,
}

impl Workers {
    /// Starts a worker as a named OS thread running `body`.
    pub fn spawn_thread(
        &mut self,
        name: String,
        body: impl FnOnce() -> io::Result<()> + Send + 'static,
    ) -> io::Result<()> {
        let thread = std::thread::Builder::new().name(name).spawn(body)?;
        self.handles.push(WorkerHandle::Thread(thread));
        Ok(())
    }

    /// Starts a worker as the child process `cmd` describes.
    pub fn spawn_process(&mut self, cmd: &mut Command) -> io::Result<()> {
        self.handles.push(WorkerHandle::Process(cmd.spawn()?));
        Ok(())
    }

    /// Starts a child process that is expected to connect back over a
    /// fresh Unix socket whose path it finds in the environment variable
    /// `env`, and returns the accepted connection. The wait is bounded: a
    /// child that exits without connecting (a host `main` that forgot its
    /// re-exec hook, a failed exec) or stays silent past the connect
    /// timeout is an error, not a hang.
    pub fn spawn_process_on_socket(
        &mut self,
        cmd: &mut Command,
        env: &str,
    ) -> io::Result<UnixStream> {
        let path = std::env::temp_dir().join(format!(
            "gossip-uds-{}-{}-{}.sock",
            std::process::id(),
            SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed),
            self.handles.len(),
        ));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        self.socket_paths.push(path.clone());
        listener.set_nonblocking(true)?;
        let mut child = cmd.env(env, &path).spawn()?;
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        let accepted = loop {
            match listener.accept() {
                Ok((stream, _addr)) => break stream.set_nonblocking(false).map(|()| stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => break Err(e),
            }
            match child.try_wait() {
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => {
                    break Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("worker process did not connect within {CONNECT_TIMEOUT:?}"),
                    ))
                }
                Ok(Some(status)) => {
                    break Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("worker process exited with {status} before connecting"),
                    ))
                }
                Err(e) => break Err(e),
            }
        };
        self.handles.push(WorkerHandle::Process(child));
        accepted
    }

    /// Joins every thread and waits for every process, unlinks the socket
    /// files, and returns the first failure: a worker loop's own error, a
    /// panic, or a non-zero exit status. Blocks until the workers exit, so
    /// tell them to stop first.
    pub fn reap(&mut self) -> io::Result<()> {
        let mut first_err: Option<io::Error> = None;
        for handle in self.handles.drain(..) {
            let outcome = match handle {
                WorkerHandle::Thread(thread) => thread
                    .join()
                    .unwrap_or_else(|_| Err(protocol_err("worker thread panicked"))),
                WorkerHandle::Process(mut child) => child.wait().and_then(|status| {
                    if status.success() {
                        Ok(())
                    } else {
                        Err(protocol_err(format!("worker process exited with {status}")))
                    }
                }),
            };
            if let Err(e) = outcome {
                first_err.get_or_insert(e);
            }
        }
        self.unlink_sockets();
        first_err.map_or(Ok(()), Err)
    }

    fn unlink_sockets(&mut self) {
        for path in self.socket_paths.drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Reached with live handles only when something failed before an
        // orderly `reap`. Children are killed; threads cannot be, and are
        // detached — they exit on their own once their link closes.
        for handle in self.handles.drain(..) {
            if let WorkerHandle::Process(mut child) = handle {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        self.unlink_sockets();
    }
}

/// One round's incoming frames at one participant: the mail grid being
/// reassembled plus, at the coordinator, the `Proposed` and `Done`
/// barriers still owed by the workers. Every frame a link receives
/// during a round goes through [`RoundInbox::accept`], which is the one
/// place that decides whether it is legal — anything else is an
/// `InvalidData` error naming the shard and the round. The one frame
/// that ends a round early is the coordinator's `Shutdown` at a worker:
/// the coordinator stops that way after a failed round, and
/// [`run_shard`] ends in `Ok(())`.
#[derive(Debug)]
pub struct RoundInbox {
    round: u64,
    asm: MailboxAssembler,
    /// Owed no barrier at all: a worker's inbox, where a `Shutdown` from
    /// the coordinator (shard 0 on both carriers) may arrive mid-round.
    at_worker: bool,
    owes_proposed: Vec<bool>,
    owes_done: Vec<bool>,
    done: Vec<Option<DoneBarrier>>,
    /// The accepted `Proposed` barriers, merged (see [`merge_proposed`]).
    proposed: ProposedBarrier,
    /// Time inside `collect` the link spent sending rather than waiting.
    flush_ns: u64,
}

/// Merges barrier `b` into `acc`: proposal counts add up; phase times
/// take the max — the critical path of phases that ran in parallel.
fn merge_proposed(acc: &mut ProposedBarrier, b: &ProposedBarrier) {
    acc.proposed += b.proposed;
    acc.propose_ns = acc.propose_ns.max(b.propose_ns);
    acc.route_ns = acc.route_ns.max(b.route_ns);
    acc.serialize_ns = acc.serialize_ns.max(b.serialize_ns);
}

impl RoundInbox {
    /// An inbox filling `asm`. `owed[s]` says whether shard `s` still
    /// owes this participant its two barriers: the workers at the
    /// coordinator, nobody at a worker.
    pub fn new(round: u64, asm: MailboxAssembler, owed: Vec<bool>) -> Self {
        RoundInbox {
            round,
            asm,
            at_worker: !owed.contains(&true),
            owes_proposed: owed.clone(),
            done: vec![None; owed.len()],
            owes_done: owed,
            proposed: ProposedBarrier::default(),
            flush_ns: 0,
        }
    }

    /// Whether shard `s` has yet to send its `Proposed` barrier.
    pub fn owes_proposed(&self, s: usize) -> bool {
        self.owes_proposed[s]
    }

    /// Whether shard `s` has yet to send its `Done` barrier.
    pub fn owes_done(&self, s: usize) -> bool {
        self.owes_done[s]
    }

    /// Shard `s`'s `Done` barrier, once accepted.
    pub fn done(&self, s: usize) -> Option<&DoneBarrier> {
        self.done[s].as_ref()
    }

    /// Whether the grid is whole and no barrier is owed.
    pub fn is_complete(&self) -> bool {
        self.asm.is_complete() && !self.owes_done.contains(&true)
    }

    /// Whether the grid is whole.
    pub fn mail_complete(&self) -> bool {
        self.asm.is_complete()
    }

    /// Books time a link spent *sending* inside its `collect` (the
    /// supervisor's broadcast), so it is reported as flush, not drain.
    pub fn add_flush_ns(&mut self, ns: u64) {
        self.flush_ns += ns;
    }

    fn reject(&self, from: usize, what: impl std::fmt::Display) -> io::Error {
        protocol_err(format!("shard {from}, round {}: {what}", self.round))
    }

    /// Feeds one mail frame whose carrier does not vouch for its origin
    /// (relayed by the supervisor, or stashed before the round started).
    pub fn accept_mail(&mut self, f: &MailFrame) -> io::Result<()> {
        self.asm
            .accept(f)
            .map_err(|e| self.reject(f.source as usize, e))
    }

    /// Feeds one frame received from shard `from`. Mail must be `from`'s
    /// own and for this round; a `Proposed` barrier must be owed and come
    /// after `from`'s mail streams closed; a `Done` barrier must be owed
    /// and follow `from`'s `Proposed`. At a worker, the coordinator's
    /// `Shutdown` ends the round with the error [`run_shard`] reads as an
    /// orderly stop.
    pub fn accept(&mut self, from: usize, frame: Frame) -> io::Result<()> {
        let r = self.round;
        // `get`, not indexing: a shard index from outside the grid is the
        // peer's violation, not a reason to panic.
        let owes = |owed: &[bool]| owed.get(from) == Some(&true);
        match frame {
            Frame::Mail(f) if f.source as usize == from => self.accept_mail(&f),
            Frame::Proposed(b)
                if b.round == r && b.source as usize == from && owes(&self.owes_proposed) =>
            {
                if !self.asm.source_complete(from) {
                    return Err(self.reject(from, "Proposed barrier before its mail completed"));
                }
                self.owes_proposed[from] = false;
                merge_proposed(&mut self.proposed, &b);
                Ok(())
            }
            Frame::Done(b)
                if b.round == r
                    && b.source as usize == from
                    && owes(&self.owes_done)
                    && !self.owes_proposed[from] =>
            {
                self.owes_done[from] = false;
                self.done[from] = Some(b);
                Ok(())
            }
            Frame::Shutdown if from == 0 && self.at_worker => Err(io::Error::other(MidRoundStop)),
            other => Err(self.reject(from, format_args!("unexpected {other:?}"))),
        }
    }
}

/// One participant's attachment to a carrier — what the stream transport
/// and the datagram transport actually differ in: how mail is published,
/// how the round's grid and barriers are collected, how workers are told
/// to start and stop. A link value sits at one end of the carrier; the
/// coordinator's end additionally owns the [`Workers`] it spawned.
pub trait ShardLink {
    /// Worker end: builds the replica from the coordinator's bootstrap
    /// stream ([`ShardReplica::bootstrap`] over this carrier's frames).
    fn bootstrap(&mut self) -> io::Result<ShardReplica>;

    /// Worker end: blocks for the coordinator's next `Start{round}`;
    /// `None` once it says `Shutdown`.
    fn next_round(&mut self) -> io::Result<Option<u64>>;

    /// Coordinator end: tells every worker to start `round`.
    fn start(&mut self, round: u64) -> io::Result<()>;

    /// Coordinator end: tells every worker to shut down and reaps them.
    fn stop(&mut self) -> io::Result<()>;

    /// Runs `replica`'s propose and route phases. A link whose carrier
    /// needs servicing while the CPU is busy overrides this to keep it
    /// moving.
    fn propose_and_route(
        &mut self,
        replica: &mut ShardReplica,
        round: u64,
    ) -> io::Result<ProposedBarrier> {
        Ok(replica.propose_and_route(round))
    }

    /// Ships shard `shard`'s routed mail, `mail_out[owner]`, towards
    /// every other replica.
    fn publish(&mut self, round: u64, shard: usize, mail_out: &[Vec<HalfEdge>]) -> io::Result<()>;

    /// Hands a span-owning replica's `Proposed` or `Done` barrier to the
    /// coordinator (which, reporting to itself, has nobody to tell).
    fn report(&mut self, barrier: &Frame) -> io::Result<()>;

    /// Receives until the round's mail from every other shard — and, at
    /// the coordinator, every worker's barriers — is in.
    fn collect(&mut self, round: u64) -> io::Result<RoundInbox>;
}

/// What one replica round took, for the phase events and the cross-check.
struct RoundReport {
    /// Every span's `Proposed` barrier — the replica's own and, at the
    /// coordinator, the workers' — merged.
    proposed: ProposedBarrier,
    flush_ns: u64,
    drain_ns: u64,
    apply_ns: u64,
    /// The workers' `Done` barriers (coordinator only).
    done: Vec<Option<DoneBarrier>>,
}

/// The replica round body, the same at every participant: propose and
/// route the own span, publish it, collect everyone else's, apply the
/// grid — with the two barriers reported on the way. Membership is the
/// caller's, since the coordinator applies it *before* starting workers.
fn replica_round<L: ShardLink>(
    link: &mut L,
    replica: &mut ShardReplica,
    r: u64,
) -> io::Result<RoundReport> {
    let mut proposed = ProposedBarrier::default();
    if let Some(shard) = replica.shard() {
        proposed = link.propose_and_route(replica, r)?;
        let t = Instant::now();
        link.publish(r, shard, &replica.mail()[shard])?;
        proposed.serialize_ns = t.elapsed().as_nanos() as u64;
        link.report(&Frame::Proposed(proposed))?;
    }

    let t = Instant::now();
    let inbox = link.collect(r)?;
    if !inbox.is_complete() {
        return Err(protocol_err(format!(
            "round {r}: collect returned with mail or barriers outstanding"
        )));
    }
    let drain_ns = (t.elapsed().as_nanos() as u64).saturating_sub(inbox.flush_ns);
    merge_proposed(&mut proposed, &inbox.proposed);

    let t = Instant::now();
    replica
        .apply_mail(&inbox.asm.into_mail())
        .map_err(|e| protocol_err(format!("round {r}: {e}")))?;
    let apply_ns = t.elapsed().as_nanos() as u64;

    if let Some(shard) = replica.shard() {
        link.report(&Frame::Done(DoneBarrier {
            round: r,
            source: shard as u32,
            added: replica.added()[shard],
            apply_ns,
            drain_ns,
            peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        }))?;
    }
    Ok(RoundReport {
        proposed,
        flush_ns: inbox.flush_ns,
        drain_ns,
        apply_ns,
        done: inbox.done,
    })
}

/// What a worker's round ends with when the coordinator's `Shutdown`
/// arrives before the round's mail is complete (see [`RoundInbox`]).
#[derive(Debug)]
struct MidRoundStop;

impl std::fmt::Display for MidRoundStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the coordinator shut the run down mid-round")
    }
}

impl std::error::Error for MidRoundStop {}

/// The worker loop, the same for every carrier and hosting mode:
/// bootstrap, then one replica round per `Start` until `Shutdown` —
/// between rounds, or in the middle of one when the coordinator stops
/// after a failed round.
pub fn run_shard<L: ShardLink>(mut link: L) -> io::Result<()> {
    let mut replica = link.bootstrap()?;
    while let Some(r) = link.next_round()? {
        replica.apply_membership(r);
        if let Err(e) = replica_round(&mut link, &mut replica, r) {
            let stopped = e.get_ref().is_some_and(|e| e.is::<MidRoundStop>());
            return if stopped { Ok(()) } else { Err(e) };
        }
    }
    Ok(())
}

/// [`run_shard`] for a re-execed worker process: runs the loop and exits
/// — 0 after an orderly `Shutdown`, 1 on any error — so the host binary's
/// own `main` never runs in a worker copy.
pub fn run_shard_process<L: ShardLink>(link: io::Result<L>) -> ! {
    match link.and_then(run_shard) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("gossip shard worker: {e}");
            std::process::exit(1);
        }
    }
}

/// The coordinator of a cross-process shard cluster: owns the
/// authoritative replica (what [`ShardRoundDriver::graph`] exposes and
/// the convergence seam reads), drives one synchronous round per
/// [`ShardRoundDriver::try_step`] over its link, and cross-checks every
/// worker's merge against its own. Implements [`RoundEngine`] with
/// `try_step`'s `io::Error` as its error, so everything that drives a
/// [`ShardedEngine`](crate::ShardedEngine) — the convergence seam,
/// listeners, the serve layer — drives this unchanged, and a failed round
/// reaches the caller as that error. Dereferences to the link for
/// carrier-specific accessors (`stats()`, the datagram transport's
/// `peer_table()`).
#[derive(Debug)]
pub struct ShardRoundDriver<L: ShardLink> {
    replica: ShardReplica,
    link: L,
    round: u64,
    phases: PhaseNanos,
    shut_down: bool,
}

impl<L: ShardLink> ShardRoundDriver<L> {
    /// A coordinator over `replica` whose workers, reachable through
    /// `link`, have been spawned and sent their bootstrap state.
    pub fn new(replica: ShardReplica, link: L) -> Self {
        ShardRoundDriver {
            replica,
            link,
            round: 0,
            phases: PhaseNanos::default(),
            shut_down: false,
        }
    }

    /// The authoritative graph `G_t` (the coordinator's replica — every
    /// round cross-checks the workers against it).
    #[inline]
    pub fn graph(&self) -> &ShardedArenaGraph {
        self.replica.graph()
    }

    /// Rounds completed so far; a failed round does not count.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Cumulative per-phase wall time. `Propose`/`Route`/`Serialize` are
    /// the max over shards (the critical path of the parallel phase);
    /// `Flush` is coordinator send time, `Drain` coordinator
    /// receive/reassembly/barrier time, `Apply` the coordinator's own
    /// merge.
    pub fn phases(&self) -> PhaseNanos {
        self.phases
    }

    /// One round, with full error reporting (worker death, protocol
    /// violations, cross-check failures all surface as `io::Error`).
    pub fn try_step(
        &mut self,
        listener: Option<&mut dyn RoundListener<ShardedArenaGraph>>,
    ) -> io::Result<RoundStats> {
        let r = self.round;

        // Membership: the coordinator applies due events to the
        // authoritative replica; workers do the same on Start (the plan
        // was shipped at bootstrap, so churn costs no wire bytes).
        let t = Instant::now();
        let mem_delta = self.replica.apply_membership(r);
        let mem_nanos = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        self.link.start(r)?;
        let start_ns = t.elapsed().as_nanos() as u64;

        let report = replica_round(&mut self.link, &mut self.replica, r)?;

        // Cross-check: each worker's own-segment merge must agree with
        // the coordinator's — a divergent replica is a protocol bug, not
        // something to paper over.
        for (s, (done, &ours)) in report.done.iter().zip(self.replica.added()).enumerate() {
            if let Some(theirs) = done.map(|b| b.added).filter(|&a| a != ours) {
                return Err(protocol_err(format!(
                    "shard {s} added {theirs} edges in round {r}, coordinator added {ours}"
                )));
            }
        }

        // Only a round that completed counts.
        self.round += 1;

        // Phase events in enum order (the accumulator sums, but listeners
        // see a canonical sequence).
        let times = [
            (RoundPhase::Membership, mem_nanos),
            (RoundPhase::Propose, report.proposed.propose_ns),
            (RoundPhase::Route, report.proposed.route_ns),
            (RoundPhase::Serialize, report.proposed.serialize_ns),
            (RoundPhase::Flush, start_ns + report.flush_ns),
            (RoundPhase::Drain, report.drain_ns),
            (RoundPhase::Apply, report.apply_ns),
        ];
        let skip = usize::from(mem_delta == MembershipStats::default());
        record_phases(&mut self.phases, listener, self.round, &times[skip..]);

        Ok(RoundStats {
            proposed: report.proposed.proposed,
            added: self.replica.added().iter().sum(),
        })
    }

    /// Tells every worker to shut down and reaps threads/processes.
    /// Called automatically on drop; explicit calls surface errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        if self.shut_down {
            return Ok(());
        }
        self.shut_down = true;
        self.link.stop()
    }
}

impl<L: ShardLink> std::ops::Deref for ShardRoundDriver<L> {
    type Target = L;
    fn deref(&self) -> &L {
        &self.link
    }
}

impl<L: ShardLink> Drop for ShardRoundDriver<L> {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl<L: ShardLink> RoundEngine for ShardRoundDriver<L> {
    type Graph = ShardedArenaGraph;
    type Error = io::Error;
    #[inline]
    fn graph(&self) -> &ShardedArenaGraph {
        self.replica.graph()
    }
    #[inline]
    fn quanta(&self) -> u64 {
        self.round
    }
    #[inline]
    fn step_listened(
        &mut self,
        listener: &mut dyn RoundListener<ShardedArenaGraph>,
    ) -> io::Result<RoundStats> {
        self.try_step(Some(listener))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::parse_framed;
    use crate::wire::{mailbox_frames, MAX_FRAME_ENTRIES};
    use crate::ShardedEngine;
    use bytes::{BufMut, BytesMut};
    use gossip_core::rng::stream_rng;
    use gossip_core::seam::run_engine_listened;
    use gossip_core::Pull;
    use gossip_graph::{generators, NodeId};
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// A link whose far side is a script: `collect` and `next_round` are
    /// fed `(from, frame)` pairs no socket produces on demand, everything
    /// the near side sends is recorded, and a script that runs dry ends
    /// the call instead of blocking. Shaped like the datagram mesh (mail
    /// arrives from its source; the coordinator is shard 0). The script
    /// is kept as wire bytes and decoded on receipt, as a real carrier
    /// does, so it can also hold bytes no current encoder writes.
    struct ScriptedLink {
        shard: usize,
        shards: usize,
        script: VecDeque<(usize, Vec<u8>)>,
        replica: Option<ShardReplica>,
        /// Shared, so a test can still read it once `run_shard` has
        /// consumed the link.
        sent: Rc<RefCell<Vec<Frame>>>,
    }

    impl ScriptedLink {
        fn new(shard: usize, shards: usize, script: Vec<(usize, Frame)>) -> Self {
            let encode = |(from, frame): (usize, Frame)| {
                let mut buf = BytesMut::new();
                frame.encode(&mut buf);
                (from, buf.to_vec())
            };
            ScriptedLink {
                shard,
                shards,
                script: script.into_iter().map(encode).collect(),
                replica: None,
                sent: Rc::default(),
            }
        }

        fn recv(&mut self) -> io::Result<Option<(usize, Frame)>> {
            let Some((from, bytes)) = self.script.pop_front() else {
                return Ok(None);
            };
            Ok(Some((from, parse_framed(&bytes)?)))
        }
    }

    impl ShardLink for ScriptedLink {
        fn bootstrap(&mut self) -> io::Result<ShardReplica> {
            Ok(self.replica.take().expect("bootstrap state scripted"))
        }
        fn next_round(&mut self) -> io::Result<Option<u64>> {
            match self.recv()? {
                Some((0, Frame::Start { round })) => Ok(Some(round)),
                Some((0, Frame::Shutdown)) | None => Ok(None),
                Some((from, other)) => Err(protocol_err(format!("peer {from}: {other:?}"))),
            }
        }
        fn start(&mut self, round: u64) -> io::Result<()> {
            self.sent.borrow_mut().push(Frame::Start { round });
            Ok(())
        }
        fn stop(&mut self) -> io::Result<()> {
            self.sent.borrow_mut().push(Frame::Shutdown);
            Ok(())
        }
        fn publish(&mut self, r: u64, shard: usize, mail_out: &[Vec<HalfEdge>]) -> io::Result<()> {
            let frames = mail_frames(r, shard, mail_out).into_iter().map(|(_, f)| f);
            self.sent.borrow_mut().extend(frames);
            Ok(())
        }
        fn report(&mut self, barrier: &Frame) -> io::Result<()> {
            self.sent.borrow_mut().push(barrier.clone());
            Ok(())
        }
        fn collect(&mut self, round: u64) -> io::Result<RoundInbox> {
            let coordinator = self.shard == 0;
            let mut inbox = RoundInbox::new(
                round,
                MailboxAssembler::for_worker(self.shards, self.shard, round, false),
                (0..self.shards).map(|s| coordinator && s != 0).collect(),
            );
            while !inbox.is_complete() {
                let Some((from, frame)) = self.recv()? else {
                    break;
                };
                inbox.accept(from, frame)?;
            }
            Ok(inbox)
        }
    }

    /// `shard`'s mail streams as the frames its peers would receive.
    fn mail_frames(r: u64, shard: usize, mail_out: &[Vec<HalfEdge>]) -> Vec<(usize, Frame)> {
        mail_out
            .iter()
            .enumerate()
            .flat_map(|(owner, mailbox)| {
                mailbox_frames(r, shard as u32, owner as u32, mailbox, MAX_FRAME_ENTRIES)
            })
            .map(|f| (shard, Frame::Mail(f)))
            .collect()
    }

    const SEED: u64 = 77;

    fn graph() -> ShardedArenaGraph {
        let und = generators::tree_plus_random_edges(3000, 6000, &mut stream_rng(11, 0, 0));
        ShardedArenaGraph::from_arena(&und, 2)
    }

    fn replica(shard: usize) -> ShardReplica {
        let policy = Parallelism::Sequential;
        ShardReplica::new(graph(), RuleId::Pull, SEED, policy, None, shard..shard + 1)
    }

    /// Round 0 of the two-shard cluster, as honest replicas play it:
    /// each shard's mail frames, and worker 1's two barriers.
    struct Round0 {
        mail: [Vec<(usize, Frame)>; 2],
        proposed: ProposedBarrier,
        done: DoneBarrier,
    }

    fn round0() -> Round0 {
        let (mut zero, mut one) = (replica(0), replica(1));
        zero.propose_and_route(0);
        let p = one.propose_and_route(0);
        let grid = vec![zero.mail()[0].clone(), vec![Vec::new(); 2]];
        one.apply_mail(&grid).unwrap();
        Round0 {
            mail: [
                mail_frames(0, 0, &zero.mail()[0]),
                mail_frames(0, 1, &one.mail()[1]),
            ],
            proposed: p,
            done: DoneBarrier {
                source: 1,
                added: one.added()[1],
                ..DoneBarrier::default()
            },
        }
    }

    /// What worker 1 sends the coordinator in an honest round 0.
    fn honest_worker_script(h: &Round0) -> Vec<(usize, Frame)> {
        let mut script = h.mail[1].clone();
        script.push((1, Frame::Proposed(h.proposed)));
        script.push((1, Frame::Done(h.done)));
        script
    }

    fn coordinator(script: Vec<(usize, Frame)>) -> ShardRoundDriver<ScriptedLink> {
        ShardRoundDriver::new(replica(0), ScriptedLink::new(0, 2, script))
    }

    /// Worker 1's end, bootstrapped: the coordinator's `Start{0}`, then
    /// `script`.
    fn worker(script: Vec<(usize, Frame)>) -> ScriptedLink {
        let start = (0, Frame::Start { round: 0 });
        let script = std::iter::once(start).chain(script).collect();
        let mut link = ScriptedLink::new(1, 2, script);
        link.replica = Some(replica(1));
        link
    }

    /// The error every scripted violation must produce: typed, and
    /// naming the offending shard and the round.
    fn assert_rejected(result: io::Result<impl std::fmt::Debug>, shard: usize, round: u64) {
        let err = result.expect_err("the violation must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("shard {shard}")),
            "no shard in: {msg}"
        );
        assert!(
            msg.contains(&format!("round {round}")),
            "no round in: {msg}"
        );
    }

    #[test]
    fn scripted_worker_drives_try_step_to_the_in_process_result() {
        let mut oracle = ShardedEngine::new(graph(), Pull, SEED);
        let mut driver = coordinator(honest_worker_script(&round0()));
        assert_eq!(driver.try_step(None).unwrap(), oracle.step());
        assert_eq!(driver.round(), 1);
        for u in oracle.graph().nodes() {
            assert_eq!(oracle.graph().neighbors(u), driver.graph().neighbors(u));
        }
        // The coordinator started the round and published its own mail.
        assert_eq!(driver.sent.borrow()[0], Frame::Start { round: 0 });
        assert!(driver
            .sent
            .borrow()
            .iter()
            .any(|f| matches!(f, Frame::Mail(_))));
        driver.shutdown().unwrap();
        assert_eq!(driver.sent.borrow().last(), Some(&Frame::Shutdown));
    }

    #[test]
    fn a_far_side_lost_mid_round_fails_the_run_and_shutdown_still_returns() {
        let mut script = honest_worker_script(&round0());
        // Worker 1 goes silent after its first mail frame.
        script.truncate(1);
        let mut driver = coordinator(script);
        let err = run_engine_listened(&mut driver, &mut (), 5).expect_err("round 0 is cut off");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("round 0"), "{err}");
        assert_eq!(driver.round(), 0, "a failed round does not count");
        driver.shutdown().unwrap();
        assert_eq!(driver.sent.borrow().last(), Some(&Frame::Shutdown));
    }

    #[test]
    fn a_proposed_barrier_before_its_mail_stream_closes_is_rejected() {
        let h = round0();
        let mut script = honest_worker_script(&h);
        // The barrier jumps the queue, ahead of the last mail frame.
        let barrier = script.remove(h.mail[1].len());
        script.insert(h.mail[1].len() - 1, barrier);
        assert_rejected(coordinator(script).try_step(None), 1, 0);
    }

    #[test]
    fn wrong_round_mail_is_rejected_at_either_end() {
        let h = round0();
        let stale = |mut script: Vec<(usize, Frame)>| {
            if let Frame::Mail(f) = &mut script[0].1 {
                f.round = 7;
            }
            script
        };
        assert_rejected(
            coordinator(stale(honest_worker_script(&h))).try_step(None),
            1,
            0,
        );

        // Worker 1's view: Start, then shard 0's mail — stale.
        assert_rejected(run_shard(worker(stale(h.mail[0].clone()))), 0, 0);
    }

    #[test]
    fn a_repeated_mail_frame_is_rejected_not_swallowed() {
        let h = round0();
        let mut script = honest_worker_script(&h);
        script.insert(1, script[0].clone());
        assert_rejected(coordinator(script).try_step(None), 1, 0);
    }

    #[test]
    fn stray_half_edges_are_rejected_before_the_merge_at_either_end() {
        let h = round0();
        let plan = *graph().plan();
        let (cut, n) = (plan.span(0).end as u32, plan.n() as u32);
        // As `(owner, row, other)`: a row below its owner's span, a row at
        // its owner's span end, a neighbour that is no node.
        let strays = [
            (1, NodeId(cut - 1), NodeId(5)),
            (0, NodeId(cut), NodeId(5)),
            (0, NodeId(5), NodeId(n)),
        ];
        for (owner, row, other) in strays {
            let plant = |mut script: Vec<(usize, Frame)>| {
                let entry = script.iter_mut().find_map(|(_, frame)| match frame {
                    Frame::Mail(f) if f.owner == owner => f.entries.first_mut(),
                    _ => None,
                });
                *entry.expect("some mail for the owner") = (0, row, other);
                script
            };
            let script = plant(honest_worker_script(&h));
            assert_rejected(coordinator(script).try_step(None), 1, 0);
            assert_rejected(run_shard(worker(plant(h.mail[0].clone()))), 0, 0);
        }
    }

    /// Worker 1's bootstrap stream from `coordinator`, in chunks of at
    /// most 512 entries.
    fn bootstrap_stream(coordinator: &ShardReplica) -> Vec<Frame> {
        let mut stream = Vec::new();
        let chunks = coordinator
            .send_bootstrap(1..2, 512, |to, frame| {
                assert_eq!(to, 1);
                stream.push(frame.clone());
                Ok(())
            })
            .unwrap();
        assert_eq!(chunks as usize, stream.len() - 1);
        stream
    }

    /// [`ShardReplica::bootstrap`] over `frames`, each through the wire.
    fn bootstrap(frames: &[Frame]) -> io::Result<ShardReplica> {
        let mut frames = frames.iter().map(|frame| {
            let mut buf = BytesMut::new();
            frame.encode(&mut buf);
            parse_framed(&buf)
        });
        ShardReplica::bootstrap(|| {
            frames
                .next()
                .unwrap_or_else(|| Err(protocol_err("stream ended")))
        })
    }

    #[test]
    fn the_bootstrap_stream_rebuilds_the_replica_and_admits_no_other_order() {
        let coordinator = replica(0);
        let stream = bootstrap_stream(&coordinator);
        let first_of_segment_1 = stream
            .iter()
            .position(|f| matches!(f, Frame::SnapshotChunk { segment: 1, .. }))
            .expect("two segments");
        assert!(first_of_segment_1 > 2, "segment 0 spans several chunks");

        let worker = bootstrap(&stream).unwrap();
        assert_eq!((worker.shard(), worker.shards()), (Some(1), 2));
        for u in coordinator.graph().nodes() {
            assert_eq!(
                worker.graph().neighbors(u),
                coordinator.graph().neighbors(u)
            );
        }

        let rejected = |frames: &[Frame], what: &str| {
            let err = bootstrap(frames).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        };
        rejected(&stream[1..], "chunks without a Config");
        rejected(&stream[..stream.len() - 1], "a stream that stops short");
        let mut swapped = stream.clone();
        swapped.swap(1, 2);
        rejected(&swapped, "two chunks of a segment out of order");
        let mut early = stream.clone();
        early.swap(1, first_of_segment_1);
        rejected(&early, "segment 1 ahead of segment 0");
        let mut twice = stream.clone();
        twice.insert(1, stream[0].clone());
        rejected(&twice, "a second Config");
        let mut outside = stream.clone();
        if let Frame::Config(c) = &mut outside[0] {
            c.shard = c.shards;
        }
        rejected(&outside, "a Config for a shard outside its grid");
    }

    #[test]
    fn bootstrap_rows_out_of_order_holding_their_own_node_or_past_n_are_rejected() {
        let stream = bootstrap_stream(&replica(0));
        // A row of segment 1 with at least two entries, as (frame, row).
        let (at, i) = stream
            .iter()
            .enumerate()
            .find_map(|(at, frame)| match frame {
                Frame::SnapshotChunk { segment: 1, chunk } => {
                    let i = chunk.len_cap.iter().position(|&(l, _)| l >= 2)?;
                    Some((at, i))
                }
                _ => None,
            })
            .expect("segment 1 holds a row of two");
        type Craft = fn(NodeId, &mut [NodeId]);
        let crafts: [(&str, Craft); 3] = [
            ("is not strictly ascending", |_, row| row.swap(0, 1)),
            ("holds its own node", |u, row| {
                // Where `u` would sit, so the row stays ascending.
                let p = row.partition_point(|&v| v < u).min(row.len() - 1);
                row[p] = u;
            }),
            ("names a node past the graph", |_, row| {
                *row.last_mut().unwrap() = NodeId(5000);
            }),
        ];
        for (what, craft) in crafts {
            let mut crafted = stream.clone();
            let Frame::SnapshotChunk { chunk, .. } = &mut crafted[at] else {
                unreachable!()
            };
            let lo: usize = chunk.len_cap[..i].iter().map(|&(l, _)| l as usize).sum();
            let hi = lo + chunk.len_cap[i].0 as usize;
            let u = NodeId(chunk.base as u32 + chunk.row_start + i as u32);
            craft(u, &mut chunk.entries[lo..hi]);
            let err = bootstrap(&crafted).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            let msg = err.to_string();
            let names = format!("segment 1 sent row {} that {what}", u.0);
            assert!(msg.contains(&names), "{msg}");
        }
    }

    #[test]
    fn a_bootstrap_row_whose_cap_no_row_of_the_graph_reaches_is_rejected() {
        // A tombstone row passes `len <= cap` and the row check, so its
        // capacity alone decides what the worker allocates: 2^24 slots
        // (64 MiB) for a row of a 2048-node graph, far past any honest one.
        let und = generators::tree_plus_random_edges(2048, 4096, &mut stream_rng(11, 0, 0));
        let g = ShardedArenaGraph::from_arena(&und, 2);
        let policy = Parallelism::Sequential;
        let mut stream = bootstrap_stream(&ShardReplica::new(
            g,
            RuleId::Pull,
            SEED,
            policy,
            None,
            0..1,
        ));
        let Frame::SnapshotChunk { chunk, .. } = &mut stream[1] else {
            unreachable!("a Config, then the first chunk")
        };
        let len = chunk.len_cap[0].0 as usize;
        chunk.entries.drain(..len);
        chunk.len_cap[0] = (0, 1 << 24);
        let err = bootstrap(&stream).expect_err("a cap of 2^24 at n = 2048");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("cap 16777216 exceeds"), "{err}");
    }

    #[test]
    fn frames_the_hub_protocol_retired_or_never_takes_from_a_worker_are_rejected() {
        // A worker echoing the supervisor's EndMail decodes, and is then
        // illegal in the round.
        let h = round0();
        let mut script = honest_worker_script(&h);
        script.insert(0, (1, Frame::EndMail { round: 0 }));
        assert_rejected(coordinator(script).try_step(None), 1, 0);

        // Kind 8, byte for byte as wire version 2 wrote a `Nak` asking for
        // a whole stream: round, source, owner, no known total, no seqs.
        let mut old_nak = BytesMut::new();
        old_nak.put_u32_le(22);
        old_nak.put_u8(8);
        old_nak.put_u64_le(0);
        old_nak.put_u32_le(0);
        old_nak.put_u32_le(1);
        old_nak.put_u8(0);
        old_nak.put_u32_le(0);
        let mut driver = coordinator(honest_worker_script(&h));
        driver.link.script.push_front((1, old_nak.to_vec()));
        let err = driver.try_step(None).expect_err("kind 8 is retired");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("unknown frame kind 8"), "{err}");
    }

    #[test]
    fn a_stray_done_from_another_shard_is_rejected() {
        let h = round0();
        let mut script = honest_worker_script(&h);
        // Arrives on worker 1's link but claims to be shard 0's.
        let stray = DoneBarrier {
            source: 0,
            ..h.done
        };
        *script.last_mut().unwrap() = (1, Frame::Done(stray));
        assert_rejected(coordinator(script).try_step(None), 1, 0);

        // And a worker is owed no barriers at all.
        let script = vec![(0, Frame::Done(h.done))];
        assert_rejected(run_shard(worker(script)), 0, 0);
    }

    #[test]
    fn a_worker_whose_added_disagrees_fails_the_cross_check() {
        let h = round0();
        let mut script = honest_worker_script(&h);
        let off_by_one = DoneBarrier {
            added: h.done.added + 1,
            ..h.done
        };
        *script.last_mut().unwrap() = (1, Frame::Done(off_by_one));
        assert_rejected(coordinator(script).try_step(None), 1, 0);
    }

    #[test]
    fn a_link_that_goes_quiet_mid_round_is_an_error_not_a_panic() {
        let mut script = honest_worker_script(&round0());
        script.truncate(1);
        let err = coordinator(script).try_step(None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn run_shard_plays_a_scripted_round_and_reports_both_barriers() {
        let h = round0();
        let mut script = h.mail[0].clone();
        script.push((0, Frame::Shutdown));
        let link = worker(script);
        let sent = link.sent.clone();
        run_shard(link).unwrap();
        let reported: Vec<Frame> = sent
            .borrow()
            .iter()
            .filter(|f| !matches!(f, Frame::Mail(_)))
            .cloned()
            .collect();
        let [Frame::Proposed(p), Frame::Done(d)] = reported.as_slice() else {
            panic!("expected Proposed then Done, got {reported:?}");
        };
        assert_eq!((p.round, p.source, p.proposed), (0, 1, h.proposed.proposed));
        assert_eq!((d.round, d.source, d.added), (0, 1, h.done.added));
    }

    #[test]
    fn a_shutdown_mid_round_ends_a_worker_cleanly_and_is_rejected_at_the_coordinator() {
        // The coordinator stops before shard 0's mail came: an orderly end.
        run_shard(worker(vec![(0, Frame::Shutdown)])).unwrap();

        // Nobody may stop the coordinator: a `Shutdown` from shard 0, as
        // the stream supervisor would hear it from its first worker.
        let mut script = honest_worker_script(&round0());
        script.insert(0, (0, Frame::Shutdown));
        assert_rejected(coordinator(script).try_step(None), 0, 0);
    }

    #[test]
    fn a_child_that_exits_without_connecting_is_an_error_and_leaves_no_socket() {
        // The child is this libtest binary asked only to list its tests:
        // it exits 0 without ever looking at the socket variable — the
        // shape of a host `main` that forgot its re-exec hook.
        let mut cmd = Command::new(std::env::current_exe().unwrap());
        cmd.arg("--list").stdout(std::process::Stdio::null());
        let mut workers = Workers::default();
        let t = Instant::now();
        let err = workers
            .spawn_process_on_socket(&mut cmd, "UNREAD_WORKER_SOCKET")
            .expect_err("nobody connects");
        assert!(t.elapsed() < CONNECT_TIMEOUT, "waited out the deadline");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
        assert!(err.to_string().contains("before connecting"), "{err}");
        let path = workers.socket_paths[0].clone();
        assert!(path.exists(), "the socket lives as long as its owner");
        drop(workers);
        assert!(!path.exists(), "drop must unlink {path:?}");
    }
}
