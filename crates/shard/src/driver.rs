//! The shard round, written once.
//!
//! Every engine in this workspace runs the same round — propose against
//! `G_t`, route half-edges to their owner shards, merge each owner's
//! column — and this module holds the one copy of each step that the
//! in-process [`ShardedEngine`](crate::ShardedEngine) and the two
//! cross-process carriers share.

use crate::wire::WorkerConfig;
use gossip_core::engine::{propose_chunk_range, PROPOSAL_CHUNK};
use gossip_core::{
    with_rule, MembershipPlan, MembershipStats, Parallelism, RuleId, TaggedProposal,
};
use gossip_graph::{HalfEdge, ShardPlan, ShardSeg, ShardSegSnapshot, ShardedArenaGraph};
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

/// Whether `policy` engages the rayon pool on an `n`-node graph.
pub(crate) fn use_parallel(policy: Parallelism, n: usize) -> bool {
    match policy {
        Parallelism::Sequential => false,
        Parallelism::Parallel => true,
        Parallelism::Auto { threshold } => n >= threshold,
    }
}

/// Routes the proposals of the chunks in `span` into per-owner mailboxes
/// (cleared first): each proposal `(u, a, b)` becomes the half-edge
/// `(a, b)` in `boxes[owner(a)]` and `(b, a)` in `boxes[owner(b)]`, tagged
/// with its slot in the span's own node-order stream. Returns the number
/// of proposals walked.
///
/// Slots are local to the source span. That is safe because the merge
/// ([`ShardSeg::apply_half_edges`]) sorts by `(key, slot)`, dedups by key
/// and then *discards the slot* — only the relative order within one
/// source stream could ever matter, and chunk-order walking preserves it.
pub(crate) fn route_span(
    plan: &ShardPlan,
    chunk_bufs: &[Vec<TaggedProposal>],
    span: Range<usize>,
    boxes: &mut [Vec<HalfEdge>],
) -> u64 {
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
    u64::from(base)
}

/// One owner shard's apply-phase work unit: `(shard index, its segment,
/// its merge scratch, its added-count slot)` — disjoint borrows the pool
/// fans out with no aliasing.
type ShardWork<'a> = (
    usize,
    &'a mut ShardSeg,
    &'a mut Vec<(u64, u32)>,
    &'a mut u64,
);

/// The apply phase: owner `t` merges its mailbox column
/// `mail[0][t], mail[1][t], …` — fixed source order — into its own
/// segment, leaving its count of new canonical edges in `added[t]`.
/// Shard-parallel when `parallel`; no locks, no cross-shard writes.
pub(crate) fn apply_grid(
    graph: &mut ShardedArenaGraph,
    scratch: &mut [Vec<(u64, u32)>],
    added: &mut [u64],
    parallel: bool,
    mail: &[Vec<Vec<HalfEdge>>],
) {
    // segments_mut is the CoW commit point: any segment still shared
    // with an epoch snapshot is deep-copied here, before the fan-out.
    let mut work: Vec<ShardWork<'_>> = graph
        .segments_mut()
        .into_iter()
        .zip(scratch.iter_mut())
        .zip(added.iter_mut())
        .enumerate()
        .map(|(t, ((seg, scratch), added))| (t, seg, scratch, added))
        .collect();
    let apply = |(t, seg, scratch, added): &mut ShardWork<'_>| {
        let sources: Vec<&[HalfEdge]> = mail.iter().map(|row| row[*t].as_slice()).collect();
        **added = seg.apply_half_edges(&sources, scratch);
    };
    if parallel {
        work.par_iter_mut().for_each(apply);
    } else {
        work.iter_mut().for_each(apply);
    }
}

/// What [`ShardReplica::propose_and_route`] did: the proposal count of
/// the replica's own span and the wall time of each half.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Proposed {
    /// Proposals drawn by the span's nodes.
    pub proposed: u64,
    /// Wall time of the propose phase.
    pub propose_ns: u64,
    /// Wall time of the route phase.
    pub route_ns: u64,
}

/// One participant's state for the cross-process round: a **full
/// replica** of `G_t` (a Pull proposal is a two-hop walk through
/// arbitrary rows, so shard-local state is not enough to propose), the
/// rule and seed every replica replays, the membership schedule shipped
/// at bootstrap, and the reusable round buffers. What is sharded is the
/// *work*: a replica proposes and routes only its own shard's chunk
/// span, then applies the whole round's mail grid.
#[derive(Debug)]
pub struct ShardReplica {
    graph: ShardedArenaGraph,
    rule: RuleId,
    seed: u64,
    parallel: bool,
    membership: MembershipPlan,
    /// The shard whose span this replica proposes; `None` for a
    /// coordinator that owns no span (the stream transport's supervisor).
    shard: Option<usize>,
    chunk_bufs: Vec<Vec<TaggedProposal>>,
    /// `mail_out[owner]`: this replica's own routed half-edges.
    mail_out: Vec<Vec<HalfEdge>>,
    scratch: Vec<Vec<(u64, u32)>>,
    added: Vec<u64>,
}

impl ShardReplica {
    /// A replica over `graph` (its shard count fixes the grid) proposing
    /// `shard`'s span.
    pub fn new(
        graph: ShardedArenaGraph,
        rule: RuleId,
        seed: u64,
        parallelism: Parallelism,
        membership: Option<MembershipPlan>,
        shard: Option<usize>,
    ) -> Self {
        let shards = graph.shard_count();
        ShardReplica {
            rule,
            seed,
            parallel: use_parallel(parallelism, graph.n()),
            membership: membership.unwrap_or_else(|| MembershipPlan::new(Vec::new())),
            shard,
            chunk_bufs: vec![Vec::new(); graph.n().div_ceil(PROPOSAL_CHUNK)],
            mail_out: vec![Vec::new(); shards],
            scratch: vec![Vec::new(); shards],
            added: vec![0; shards],
            graph,
        }
    }

    /// The worker-side constructor: rebuilds the coordinator's state from
    /// its bootstrap `Config` and one snapshot per segment.
    pub fn from_config(cfg: WorkerConfig, snaps: &[ShardSegSnapshot]) -> io::Result<Self> {
        let graph =
            ShardedArenaGraph::from_segment_snapshots(cfg.n as usize, cfg.shards as usize, snaps)
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
            Some(cfg.shard as usize),
        ))
    }

    /// The bootstrap `Config` that makes worker `shard` a copy of this
    /// replica (the segment snapshots travel separately).
    pub fn worker_config(&self, shard: usize, strict: bool, peers: Vec<String>) -> WorkerConfig {
        WorkerConfig {
            shard: shard as u32,
            shards: self.shards() as u32,
            n: self.graph.n() as u64,
            seed: self.seed,
            rule: self.rule,
            parallel: self.parallel,
            strict,
            events: self.membership.events().to_vec(),
            peers,
        }
    }

    /// The replica's current graph `G_t`.
    #[inline]
    pub fn graph(&self) -> &ShardedArenaGraph {
        &self.graph
    }

    /// The rule's registry id.
    pub fn rule(&self) -> RuleId {
        self.rule
    }

    /// Number of shards in the grid.
    #[inline]
    pub fn shards(&self) -> usize {
        self.mail_out.len()
    }

    /// The shard whose span this replica proposes, if any.
    pub fn shard(&self) -> Option<usize> {
        self.shard
    }

    /// This replica's routed half-edges, `mail_out[owner]`, as of the
    /// last [`ShardReplica::propose_and_route`].
    pub fn mail_out(&self) -> &[Vec<HalfEdge>] {
        &self.mail_out
    }

    /// Per-segment new-canonical-edge counts of the last
    /// [`ShardReplica::apply_grid`].
    pub fn added(&self) -> &[u64] {
        &self.added
    }

    /// Applies the membership events due at `round` — the same
    /// pre-increment round key as every other engine.
    pub fn apply_membership(&mut self, round: u64) -> MembershipStats {
        self.membership.apply_due(round, &mut self.graph)
    }

    /// Proposes this replica's own chunk span against `G_t` and routes
    /// the result into `mail_out`. The restricted propose fills exactly
    /// the buffers the full phase would (RNG streams are keyed by
    /// `(seed, round, node)` alone).
    pub fn propose_and_route(&mut self, round: u64) -> Proposed {
        let shard = self
            .shard
            .expect("a replica without a span proposes nothing");
        let plan = *self.graph.plan();
        let t = Instant::now();
        with_rule!(self.rule, |rule| propose_chunk_range(
            &self.graph,
            &rule,
            self.seed,
            round,
            &mut self.chunk_bufs,
            plan.chunk_span(shard),
            self.parallel,
        ));
        let propose_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let proposed = route_span(
            &plan,
            &self.chunk_bufs,
            plan.chunk_span(shard),
            &mut self.mail_out,
        );
        Proposed {
            proposed,
            propose_ns,
            route_ns: t.elapsed().as_nanos() as u64,
        }
    }

    /// Merges the round's full mail grid into the replica. `grid[s][t]`
    /// holds every *other* source's mail (as a
    /// [`MailboxAssembler`](crate::wire::MailboxAssembler) hands it back);
    /// the replica's own row is swapped in from `mail_out` for the merge.
    pub fn apply_grid(&mut self, grid: &mut [Vec<Vec<HalfEdge>>]) {
        if let Some(s) = self.shard {
            std::mem::swap(&mut grid[s], &mut self.mail_out);
        }
        apply_grid(
            &mut self.graph,
            &mut self.scratch,
            &mut self.added,
            self.parallel,
            grid,
        );
        if let Some(s) = self.shard {
            std::mem::swap(&mut grid[s], &mut self.mail_out);
        }
    }
}

/// How long [`Workers::spawn_process_on_socket`] waits for a re-execed
/// child to connect back before giving up on it.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

enum WorkerHandle {
    Thread(JoinHandle<io::Result<()>>),
    Process(Child),
}

/// The worker lifecycle, for either carrier and either hosting mode:
/// starts shard workers as OS threads or as re-execed child processes,
/// and reaps them. Whatever was started and never reaped — a spawn that
/// failed half-way, an engine dropped after a failed round — is cleaned
/// up on drop: children are killed and waited for, socket files unlinked.
#[derive(Default)]
pub struct Workers {
    handles: Vec<WorkerHandle>,
    socket_paths: Vec<PathBuf>,
}

impl std::fmt::Debug for Workers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workers")
            .field("live", &self.handles.len())
            .field("socket_paths", &self.socket_paths)
            .finish()
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
            .spawn_process_on_socket(&mut cmd, "GOSSIP_TEST_UNREAD_SOCKET")
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
