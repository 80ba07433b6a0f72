//! # gossip-cluster
//!
//! **Datagram shard transport for cross-host runs**: the deterministic
//! multi-shard round engine of [`gossip_shard`], executed as `S` shard
//! endpoints that exchange [`wire`](gossip_shard::wire) frames
//! **peer-to-peer over UDP sockets** resolved from a static peer table.
//! Loopback ports stand in for hosts in tests and experiments; pointing
//! the table at real addresses is the deployment story.
//!
//! # How it differs from the UDS transport
//!
//! The stream transport ([`gossip_shard::transport`]) routes every mail
//! byte through a resident supervisor. Here there is **no supervisor on
//! the data path**: shard `s` sends each of its `(s, owner)` mailbox
//! streams *directly* to every other shard. What remains centralized is
//! only the round barrier — shard 0 (the **coordinator**, hosted in the
//! driving process and the engine the caller holds) collects
//! `Proposed`/`Done` barriers and issues `Start{r+1}` once round `r` is
//! fully applied everywhere. Consequently no shard can run more than one
//! round ahead, which bounds worker-side buffering to a single stash of
//! early next-round mail.
//!
//! The round itself is not this crate's: the coordinator's `try_step`,
//! the worker loop and the replica round body are
//! [`gossip_shard::driver`]'s, shared with the stream transport, and
//! [`ClusterEngine`] is its [`ShardRoundDriver`] over this crate's
//! carrier, [`MeshLink`].
//!
//! Datagrams are unreliable, so a [`window`] layer supplies per-peer
//! send windows with ack/nak control frames, timeout + exponential
//! backoff retransmit, duplicate suppression, in-order delivery, and
//! datagram-sized fragmentation for frames over the MTU budget. The
//! protocol is a pure [`LinkMachine`] — no socket, no clock — and
//! [`Endpoint`] the socket shell around it. The shell's pump is
//! event-driven — whatever the socket has ready is read without
//! blocking and acked at once, a hole is nak'd as the arrival exposing
//! it is read — so a window turn costs a loopback round trip, not a
//! socket-timeout quantum; only an idle endpoint waits on the timeout.
//!
//! # Bootstrap: streamed snapshots
//!
//! Workers start empty, knowing only the peer table they were launched
//! with; the coordinator streams every segment of the starting
//! [`ShardedArenaGraph`] as [`gossip_graph::SegSnapshotChunk`] frames
//! read from its live rows — the bootstrap stream [`gossip_shard::driver`]
//! writes and reads for both carriers, chunked here to fit a datagram,
//! which a worker appends straight into the segments it rebuilds. The
//! coordinator queues all chunks and the round-0 `Start` behind them
//! (per-link FIFO keeps the order) and waits for no acknowledgment: it
//! runs its own round-0 propose on a helper thread while the main thread
//! keeps pumping the windows — the first propose overlaps the tail of
//! snapshot transfer, and
//! [`ClusterStats::bootstrap_overlap_datagrams`] records how many
//! datagrams were confirmed inside that window. A worker that cannot
//! assemble its replica never reports round 0's barriers, which is where
//! the coordinator finds out.
//!
//! # Why determinism survives datagram reordering
//!
//! For any `(S, peer table, seeded loss rate)` the final state is
//! **bit-identical to the sequential engine** — pinned by the
//! determinism suite and a shrinking property suite. The chain: the
//! window layer delivers each directed link's frames exactly once in
//! send order, the mailbox assembler keys its in-order streams by
//! `(source, owner)` so cross-link interleaving cannot matter, and the merge
//! ([`gossip_graph::ShardSeg::apply_half_edges`]) groups a row's
//! half-edges in arrival order, keeps one of each and never reads a slot
//! — only the relative order *within one source stream* could ever
//! matter, and that is exactly what the window preserves. Seeded loss is
//! a pure function of
//! `(seed, link, seq)` applied only to first transmissions, so injected
//! fault counts reproduce while repairs stay off the deterministic path.
//!
//! # Quickstart
//!
//! ```
//! use gossip_cluster::ClusterBuilder;
//! use gossip_core::{run_engine_until, ComponentwiseComplete, RuleId};
//! use gossip_graph::{generators, ShardedArenaGraph};
//!
//! let und = generators::star(256);
//! let g = ShardedArenaGraph::from_arena(&und, 2);
//! let mut check = ComponentwiseComplete::for_graph(&und);
//! let mut cluster = ClusterBuilder::new(g, RuleId::Push, 7).spawn().unwrap();
//! let out = run_engine_until(&mut cluster, &mut check, 1_000_000).unwrap();
//! assert!(out.converged && cluster.graph().is_complete());
//! cluster.shutdown().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]

use gossip_core::{MembershipPlan, Parallelism, RuleId};
use gossip_graph::{HalfEdge, ShardedArenaGraph};
use gossip_shard::wire::{
    mailbox_frames, Frame, MailFrame, MailboxAssembler, ProposedBarrier, MAX_FRAME_ENTRIES,
};
use gossip_shard::{
    peak_rss_bytes, protocol_err, run_shard, run_shard_process, RoundInbox, ShardLink,
    ShardReplica, ShardRoundDriver, TransportMode, Workers,
};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::process::Command;
use std::time::{Duration, Instant};

pub mod window;

pub use window::{DatagramLoss, Endpoint, EndpointStats, LinkMachine, Tx, DEFAULT_MTU};

/// Environment variable carrying a re-execed cluster worker's shard
/// index. Set only by [`TransportMode::Process`] spawns.
pub const CLUSTER_SHARD_ENV: &str = "GOSSIP_CLUSTER_SHARD";
/// Comma-separated static peer table (shard order) for a re-execed
/// worker; the worker binds `peers[shard]`.
pub const CLUSTER_PEERS_ENV: &str = "GOSSIP_CLUSTER_PEERS";
/// Optional `seed:drop_per_mille:dup_per_mille` loss shim for a
/// re-execed worker (absent = lossless).
pub const CLUSTER_LOSS_ENV: &str = "GOSSIP_CLUSTER_LOSS";
/// Optional datagram payload budget override for a re-execed worker.
pub const CLUSTER_MTU_ENV: &str = "GOSSIP_CLUSTER_MTU";

/// How long any endpoint waits for the next frame before declaring its
/// peers dead. Generous: at `n = 2^20` a peer can legitimately spend
/// seconds inside a propose or apply phase without pumping its socket.
const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Entry budget for one snapshot chunk, sized so a typical chunk frame
/// fits one datagram (fragmentation remains the safety net for chunks
/// dominated by empty tombstone rows).
fn snapshot_chunk_entries(mtu: usize) -> usize {
    (mtu / 8).max(1)
}

/// Cluster-level counters for a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// The coordinator endpoint's window-layer counters (see
    /// [`EndpointStats`] for which rows are deterministic).
    pub endpoint: EndpointStats,
    /// Snapshot chunks streamed at bootstrap (deterministic).
    pub snapshot_chunks: u64,
    /// Datagrams confirmed while the coordinator's round-0 propose ran
    /// on its helper thread — the volume of bootstrap transfer that
    /// overlapped compute.
    pub bootstrap_overlap_datagrams: u64,
    /// Wall time the round-0 propose ran while bootstrap datagrams were
    /// still pending — transfer hidden under compute.
    pub bootstrap_overlap_ns: u64,
    /// Peak RSS reported by each shard in its latest `Done` barrier
    /// (index 0 is the coordinator's own, read when the stats are).
    /// Genuine per-process high-water marks in process mode.
    pub worker_peak_rss_bytes: Vec<u64>,
}

/// Builds a [`ClusterEngine`] (builder style).
#[derive(Debug)]
pub struct ClusterBuilder {
    graph: ShardedArenaGraph,
    rule: RuleId,
    seed: u64,
    parallelism: Parallelism,
    membership: Option<MembershipPlan>,
    mode: TransportMode,
    loss: Option<DatagramLoss>,
    mtu: usize,
    bind: Option<SocketAddr>,
    peers: Option<Vec<SocketAddr>>,
}

impl ClusterBuilder {
    /// Starts a builder over `graph` (its shard count fixes the cluster
    /// size) with the given rule and experiment seed.
    pub fn new(graph: ShardedArenaGraph, rule: RuleId, seed: u64) -> Self {
        ClusterBuilder {
            graph,
            rule,
            seed,
            parallelism: Parallelism::default(),
            membership: None,
            mode: TransportMode::Thread,
            loss: None,
            mtu: DEFAULT_MTU,
            bind: None,
            peers: None,
        }
    }

    /// Worker hosting mode (default: [`TransportMode::Thread`]).
    /// Process mode re-execs the current binary per worker shard; the
    /// hosting binary must call [`maybe_run_cluster_shard`] first thing
    /// in `main`, and **never** use process mode from a default libtest
    /// harness.
    pub fn with_mode(mut self, mode: TransportMode) -> Self {
        self.mode = mode;
        self
    }

    /// Parallelism policy inside the coordinator and each worker.
    pub fn with_parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Installs a membership plan, shipped once in `Config` and applied
    /// locally by every shard at the same pre-increment round points as
    /// the in-process engines.
    pub fn with_membership(mut self, plan: MembershipPlan) -> Self {
        self.membership = Some(plan);
        self
    }

    /// Enables the seeded datagram loss shim on **every** endpoint
    /// (coordinator and workers), for the fault lanes of all links.
    pub fn with_loss(mut self, loss: DatagramLoss) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Datagram payload budget in bytes (default [`DEFAULT_MTU`]);
    /// frames over it are fragmented.
    pub fn with_mtu(mut self, mtu: usize) -> Self {
        assert!(mtu > 0, "mtu must be positive");
        self.mtu = mtu;
        self
    }

    /// Address the coordinator (shard 0) binds (default
    /// `127.0.0.1:0`).
    pub fn with_bind(mut self, addr: SocketAddr) -> Self {
        self.bind = Some(addr);
        self
    }

    /// Static worker addresses for shards `1..S` (default: auto-assigned
    /// loopback ports). Length must be `shard_count - 1`.
    pub fn with_peers(mut self, peers: Vec<SocketAddr>) -> Self {
        self.peers = Some(peers);
        self
    }

    /// Binds the sockets, spawns the workers, streams bootstrap state,
    /// and returns the running engine (the coordinator, shard 0).
    pub fn spawn(self) -> io::Result<ClusterEngine> {
        let shards = self.graph.shard_count();

        // Resolve the peer table. The coordinator binds first so
        // `peers[0]` is concrete even when auto-assigned.
        let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
        let bind = self.bind.unwrap_or(loopback);
        let coord_socket = UdpSocket::bind(bind)?;
        let mut table = vec![coord_socket.local_addr()?];
        let worker_addrs: Vec<Option<SocketAddr>> = match &self.peers {
            Some(list) => {
                if list.len() != shards.saturating_sub(1) {
                    return Err(protocol_err(format!(
                        "peer table needs {} worker addresses, got {}",
                        shards.saturating_sub(1),
                        list.len()
                    )));
                }
                list.iter().copied().map(Some).collect()
            }
            None => vec![None; shards.saturating_sub(1)],
        };

        // Bind worker sockets. Thread mode hands the bound socket to the
        // worker thread (race-free even with auto ports). Process mode
        // probe-binds auto addresses to reserve a free port, then drops
        // the socket so the child can bind it — a tiny reuse window that
        // is acceptable on loopback and absent with explicit tables.
        let mut worker_sockets: Vec<UdpSocket> = Vec::new();
        for (i, want) in worker_addrs.iter().enumerate() {
            let addr = want.unwrap_or(loopback);
            let sock = UdpSocket::bind(addr).map_err(|e| {
                io::Error::new(e.kind(), format!("binding worker {} at {addr}: {e}", i + 1))
            })?;
            table.push(sock.local_addr()?);
            worker_sockets.push(sock);
        }

        let mut workers = Workers::default();
        for (s, socket) in (1..shards).zip(worker_sockets) {
            match self.mode {
                TransportMode::Thread => {
                    let peers = table.clone();
                    let (loss, mtu) = (self.loss, self.mtu);
                    workers.spawn_thread(format!("gossip-cluster-{s}"), move || {
                        run_shard(MeshLink::worker(socket, peers, s, loss, mtu)?)
                    })?;
                }
                TransportMode::Process => {
                    drop(socket);
                    let peers_env: Vec<String> = table.iter().map(|a| a.to_string()).collect();
                    let mut cmd = Command::new(std::env::current_exe()?);
                    cmd.env(CLUSTER_SHARD_ENV, s.to_string())
                        .env(CLUSTER_PEERS_ENV, peers_env.join(","))
                        .env(CLUSTER_MTU_ENV, self.mtu.to_string());
                    if let Some(l) = self.loss {
                        cmd.env(
                            CLUSTER_LOSS_ENV,
                            format!("{}:{}:{}", l.seed, l.drop_per_mille, l.dup_per_mille),
                        );
                    }
                    workers.spawn_process(&mut cmd)?;
                }
            }
        }

        let replica = ShardReplica::new(
            self.graph,
            self.rule,
            self.seed,
            self.parallelism,
            self.membership,
            0..1,
        );
        let mut link = MeshLink::worker(coord_socket, table.clone(), 0, self.loss, self.mtu)?;
        link.workers = workers;
        link.stats.worker_peak_rss_bytes = vec![0; shards];

        // Bootstrap: Config then every segment's chunk stream, to every
        // worker. Queued, not awaited — per-link FIFO guarantees each
        // worker sees Config → chunks → (later) Start in order.
        link.stats.snapshot_chunks =
            replica.send_bootstrap(1..shards, snapshot_chunk_entries(self.mtu), |d, frame| {
                link.endpoint.send_frame(d, frame)
            })?;
        Ok(ShardRoundDriver::new(replica, link))
    }
}

/// The coordinator (shard 0) of a datagram shard cluster: a
/// [`ShardRoundDriver`] over a [`MeshLink`]. The round it drives is
/// `gossip_shard::driver`'s, shared with the stream transport.
pub type ClusterEngine = ShardRoundDriver<MeshLink>;

/// One shard's end of the datagram carrier: its [`Endpoint`] onto the
/// peer-to-peer mesh. Every shard — the coordinator included, which *is*
/// shard 0 — publishes its mail straight to every peer; only barriers
/// converge on the coordinator, whose end additionally owns the workers
/// it spawned and the bootstrap counters.
#[derive(Debug)]
pub struct MeshLink {
    endpoint: Endpoint,
    /// Worker end: the next round a `Start` may name. A faster peer's
    /// mail for it may arrive first and is stashed in `pending` (it
    /// cannot be further ahead: `Start{r+1}` implies every shard
    /// finished `r`).
    expected: u64,
    pending: Vec<MailFrame>,
    workers: Workers,
    /// Everything in [`ClusterStats`] but the endpoint's own counters.
    stats: ClusterStats,
}

impl MeshLink {
    /// Shard `shard`'s end, over its bound socket. (The coordinator's
    /// end starts as shard 0's and is then given its workers.)
    fn worker(
        socket: UdpSocket,
        peers: Vec<SocketAddr>,
        shard: usize,
        loss: Option<DatagramLoss>,
        mtu: usize,
    ) -> io::Result<MeshLink> {
        Ok(MeshLink {
            endpoint: Endpoint::new(socket, shard, peers, loss, mtu)?,
            expected: 0,
            pending: Vec::new(),
            workers: Workers::default(),
            stats: ClusterStats::default(),
        })
    }

    /// The resolved static peer table (shard order; index 0 is the
    /// coordinator).
    pub fn peer_table(&self) -> &[SocketAddr] {
        self.endpoint.peers()
    }

    /// Cluster counters so far.
    pub fn stats(&self) -> ClusterStats {
        let mut stats = self.stats.clone();
        stats.endpoint = self.endpoint.stats().clone();
        stats.worker_peak_rss_bytes[0] = peak_rss_bytes().unwrap_or(0);
        stats
    }

    fn is_coordinator(&self) -> bool {
        self.endpoint.shard() == 0
    }
}

impl ShardLink for MeshLink {
    fn bootstrap(&mut self) -> io::Result<ShardReplica> {
        let (shard, shards) = (self.endpoint.shard(), self.endpoint.peers().len());
        ShardReplica::bootstrap(|| loop {
            let (from, frame) = self.endpoint.recv(RECV_TIMEOUT)?;
            match frame {
                // Early round-0 mail from faster peers is legal here —
                // only the coordinator's own link is FIFO-ordered ahead
                // of Start.
                Frame::Mail(f) if f.round == 0 => self.pending.push(f),
                Frame::Config(c)
                    if from == 0 && (c.shard as usize != shard || c.shards as usize != shards) =>
                {
                    return Err(protocol_err(format!(
                        "config for shard {}/{} but I am {shard}/{shards}",
                        c.shard, c.shards,
                    )))
                }
                frame if from == 0 => return Ok(frame),
                other => {
                    return Err(protocol_err(format!(
                        "peer {from}: unexpected {other:?} during bootstrap"
                    )))
                }
            }
        })
    }

    fn next_round(&mut self) -> io::Result<Option<u64>> {
        loop {
            let (from, frame) = self.endpoint.recv(RECV_TIMEOUT)?;
            match frame {
                Frame::Start { round } if from == 0 && round == self.expected => {
                    self.expected += 1;
                    return Ok(Some(round));
                }
                Frame::Mail(f) if f.round == self.expected => self.pending.push(f),
                Frame::Shutdown if from == 0 => {
                    self.endpoint.drain(Duration::from_secs(30))?;
                    return Ok(None);
                }
                other => {
                    return Err(protocol_err(format!(
                        "peer {from}: expected Start/Shutdown, got {other:?}"
                    )))
                }
            }
        }
    }

    fn start(&mut self, round: u64) -> io::Result<()> {
        for d in 1..self.endpoint.peers().len() {
            self.endpoint.send_frame(d, &Frame::Start { round })?;
        }
        Ok(())
    }

    /// Sends `Shutdown` to every worker, drains the windows, and reaps.
    fn stop(&mut self) -> io::Result<()> {
        let mut first_err: Option<io::Error> = None;
        for d in 1..self.endpoint.peers().len() {
            if let Err(e) = self.endpoint.send_frame(d, &Frame::Shutdown) {
                first_err.get_or_insert(e);
            }
        }
        if let Err(e) = self.endpoint.drain(Duration::from_secs(30)) {
            first_err.get_or_insert(e);
        }
        if let Err(e) = self.workers.reap() {
            first_err.get_or_insert(e);
        }
        first_err.map_or(Ok(()), Err)
    }

    /// The coordinator's round-0 propose: the bootstrap stream is still
    /// queued behind it, and the windows only move when the endpoint is
    /// pumped, so the propose runs on a helper thread while this one
    /// keeps draining the snapshot stream under it. Every other propose
    /// is the plain one.
    fn propose_and_route(
        &mut self,
        replica: &mut ShardReplica,
        round: u64,
    ) -> io::Result<ProposedBarrier> {
        if !(self.is_coordinator() && round == 0) {
            return Ok(replica.propose_and_route(round));
        }
        let pending_before = self.endpoint.pending_datagrams();
        let endpoint = &mut self.endpoint;
        let mut overlap_ns = 0u64;
        let proposed = std::thread::scope(|scope| -> io::Result<ProposedBarrier> {
            let propose = scope.spawn(move || replica.propose_and_route(round));
            let t_overlap = Instant::now();
            while !propose.is_finished() {
                endpoint.pump()?;
                if endpoint.pending_datagrams() > 0 {
                    overlap_ns = t_overlap.elapsed().as_nanos() as u64;
                }
            }
            propose
                .join()
                .map_err(|_| protocol_err("propose thread panicked"))
        })?;
        self.stats.bootstrap_overlap_ns = overlap_ns;
        self.stats.bootstrap_overlap_datagrams =
            pending_before.saturating_sub(self.endpoint.pending_datagrams());
        Ok(proposed)
    }

    /// Peer-to-peer upload: every `(shard, owner)` stream to every peer —
    /// no supervisor hop.
    fn publish(&mut self, round: u64, shard: usize, mail_out: &[Vec<HalfEdge>]) -> io::Result<()> {
        for d in (0..self.endpoint.peers().len()).filter(|&d| d != shard) {
            for (owner, mailbox) in mail_out.iter().enumerate() {
                for f in mailbox_frames(
                    round,
                    shard as u32,
                    owner as u32,
                    mailbox,
                    MAX_FRAME_ENTRIES,
                ) {
                    self.endpoint.send_frame(d, &Frame::Mail(f))?;
                }
            }
        }
        Ok(())
    }

    fn report(&mut self, barrier: &Frame) -> io::Result<()> {
        if self.is_coordinator() {
            return Ok(());
        }
        self.endpoint.send_frame(0, barrier)
    }

    /// Collects every other shard's streams — and, at the coordinator,
    /// every worker's barriers. The window layer already repaired loss
    /// and restored per-link order, so completeness is just "all expected
    /// streams closed, all owed barriers in".
    fn collect(&mut self, round: u64) -> io::Result<RoundInbox> {
        let (shard, shards) = (self.endpoint.shard(), self.endpoint.peers().len());
        let coordinator = self.is_coordinator();
        let mut inbox = RoundInbox::new(
            round,
            MailboxAssembler::for_worker(shards, shard, round, false),
            (0..shards).map(|s| coordinator && s != 0).collect(),
        );
        for f in self.pending.drain(..) {
            inbox.accept_mail(&f)?;
        }
        while !inbox.is_complete() {
            let (from, frame) = self.endpoint.recv(RECV_TIMEOUT)?;
            inbox.accept(from, frame)?;
        }
        for (s, peak) in self.stats.worker_peak_rss_bytes.iter_mut().enumerate() {
            *peak = (*peak).max(inbox.done(s).map_or(0, |b| b.peak_rss_bytes));
        }
        Ok(inbox)
    }
}

/// If [`CLUSTER_SHARD_ENV`] is set, runs this process as a cluster shard
/// worker (binding its slot of the peer table from
/// [`CLUSTER_PEERS_ENV`]) and exits; otherwise returns immediately.
/// Binaries that may host [`TransportMode::Process`] cluster workers —
/// the CLI, `run_all`, the `udp_process` test — call this
/// first thing in `main`.
pub fn maybe_run_cluster_shard() {
    let Ok(shard_s) = std::env::var(CLUSTER_SHARD_ENV) else {
        return;
    };
    let exit = |msg: String| -> ! {
        eprintln!("gossip cluster worker: {msg}");
        std::process::exit(2);
    };
    let Ok(shard) = shard_s.parse::<usize>() else {
        exit(format!("bad {CLUSTER_SHARD_ENV}={shard_s}"));
    };
    let peers_s = std::env::var(CLUSTER_PEERS_ENV)
        .unwrap_or_else(|_| exit(format!("{CLUSTER_PEERS_ENV} not set")));
    let peers: Vec<SocketAddr> = peers_s
        .split(',')
        .map(|a| {
            a.parse()
                .unwrap_or_else(|_| exit(format!("bad peer address {a}")))
        })
        .collect();
    if shard == 0 || shard >= peers.len() {
        exit(format!(
            "shard {shard} outside peer table of {}",
            peers.len()
        ));
    }
    let loss = std::env::var(CLUSTER_LOSS_ENV).ok().map(|spec| {
        parse_loss(&spec).unwrap_or_else(|| exit(format!("bad {CLUSTER_LOSS_ENV}={spec}")))
    });
    let mtu = parse_mtu(std::env::var(CLUSTER_MTU_ENV).ok().as_deref())
        .unwrap_or_else(|m| exit(format!("bad {CLUSTER_MTU_ENV}={m}")));

    // The parent released this port just before exec; retry briefly in
    // case the OS is slow to make it available again.
    let addr = peers[shard];
    let mut socket = None;
    for _ in 0..50 {
        match UdpSocket::bind(addr) {
            Ok(s) => {
                socket = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(40)),
        }
    }
    let Some(socket) = socket else {
        exit(format!("cannot bind {addr}"));
    };
    run_shard_process(MeshLink::worker(socket, peers, shard, loss, mtu));
}

/// The worker's loss shim from [`CLUSTER_LOSS_ENV`]'s value: exactly
/// `seed:drop_per_mille:dup_per_mille`, each field in its own type's
/// range, or nothing — a rate that wrapped would inject other faults than
/// the coordinator's.
fn parse_loss(spec: &str) -> Option<DatagramLoss> {
    let mut fields = spec.split(':');
    let loss = DatagramLoss {
        seed: fields.next()?.parse().ok()?,
        drop_per_mille: fields.next()?.parse().ok()?,
        dup_per_mille: fields.next()?.parse().ok()?,
    };
    fields.next().is_none().then_some(loss)
}

/// The worker's datagram budget from [`CLUSTER_MTU_ENV`]'s value: absent
/// means [`DEFAULT_MTU`]; anything but a positive integer is handed back
/// as the error, because a worker that guessed a budget would fragment
/// differently from its coordinator.
fn parse_mtu(value: Option<&str>) -> Result<usize, &str> {
    match value {
        None => Ok(DEFAULT_MTU),
        Some(m) => m.parse().ok().filter(|&mtu| mtu > 0).ok_or(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::rng::stream_rng;
    use gossip_core::{run_engine_until, ChurnBursts, ComponentwiseComplete, Pull, Push};
    use gossip_graph::generators;
    use gossip_shard::ShardedEngine;

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
    fn mtu_env_must_be_a_positive_integer() {
        assert_eq!(parse_mtu(None), Ok(DEFAULT_MTU));
        assert_eq!(parse_mtu(Some("512")), Ok(512));
        for bad in ["0", "", "-1", "1400 ", "1k"] {
            assert_eq!(parse_mtu(Some(bad)), Err(bad));
        }
    }

    #[test]
    fn a_shutdown_before_the_rounds_mail_ends_the_worker_cleanly() {
        let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
        let (coord, wrk) = (
            UdpSocket::bind(loopback).unwrap(),
            UdpSocket::bind(loopback).unwrap(),
        );
        let peers = vec![coord.local_addr().unwrap(), wrk.local_addr().unwrap()];
        let mut link = MeshLink::worker(coord, peers.clone(), 0, None, DEFAULT_MTU).unwrap();
        let body = move || run_shard(MeshLink::worker(wrk, peers, 1, None, DEFAULT_MTU)?);
        link.workers.spawn_thread("w1".into(), body).unwrap();
        let policy = Parallelism::Sequential;
        let replica = ShardReplica::new(sharded(64, 64, 3, 2), RuleId::Pull, 5, policy, None, 0..1);
        let chunk_entries = snapshot_chunk_entries(DEFAULT_MTU);
        replica
            .send_bootstrap(1..2, chunk_entries, |d, f| link.endpoint.send_frame(d, f))
            .unwrap();
        // Round 0 starts, and stops before shard 0's mail. `stop` reaps
        // the worker thread, so it is `Ok` only if `run_shard` was.
        link.start(0).unwrap();
        link.stop().expect("a stop mid-round is orderly");
    }

    #[test]
    fn cluster_matches_in_process_engine() {
        let n = 3000;
        for shards in [2, 4] {
            let g = sharded(n, 2 * n as u64, 11, shards);
            let mut inproc = ShardedEngine::new(g.clone(), Pull, 77);
            let mut cluster = ClusterBuilder::new(g, RuleId::Pull, 77)
                .spawn()
                .expect("spawn");
            for round in 0..6 {
                assert_eq!(
                    inproc.step(),
                    cluster.try_step(None).unwrap(),
                    "S={shards} round={round}: stats diverged over datagrams"
                );
            }
            assert_graphs_equal(inproc.graph(), cluster.graph(), "cluster");
            cluster.graph().validate().unwrap();
            cluster.shutdown().unwrap();
        }
    }

    #[test]
    fn lossy_cluster_converges_to_the_same_graph() {
        let n = 2000;
        let g = sharded(n, n as u64, 5, 3);
        let mut inproc = ShardedEngine::new(g.clone(), Push, 9);
        let mut cluster = ClusterBuilder::new(g, RuleId::Push, 9)
            .with_loss(DatagramLoss {
                seed: 0xBAD,
                drop_per_mille: 100,
                dup_per_mille: 50,
            })
            .spawn()
            .expect("spawn");
        for round in 0..4 {
            assert_eq!(
                inproc.step(),
                cluster.try_step(None).unwrap(),
                "round {round}"
            );
        }
        assert_graphs_equal(inproc.graph(), cluster.graph(), "lossy cluster");
        let stats = cluster.stats();
        assert!(
            stats.endpoint.injected_drops > 0,
            "injection never fired: {stats:?}"
        );
        assert!(stats.endpoint.retransmitted >= stats.endpoint.injected_drops);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn cluster_runs_membership_plans_shipped_at_bootstrap() {
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
        let mut inproc =
            ShardedEngine::new(g.clone(), Pull, 13).with_membership(MembershipPlan::bursts(&churn));
        let mut cluster = ClusterBuilder::new(g, RuleId::Pull, 13)
            .with_membership(MembershipPlan::bursts(&churn))
            .spawn()
            .expect("spawn");
        for round in 0..6 {
            assert_eq!(
                inproc.step(),
                cluster.try_step(None).unwrap(),
                "round {round}"
            );
        }
        assert_graphs_equal(inproc.graph(), cluster.graph(), "churn over datagrams");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn cluster_drives_the_convergence_seam() {
        let und = generators::star(256);
        let g = ShardedArenaGraph::from_arena(&und, 2);
        let mut check = ComponentwiseComplete::for_graph(&und);
        let mut cluster = ClusterBuilder::new(g, RuleId::Push, 4)
            .spawn()
            .expect("spawn");
        let out = run_engine_until(&mut cluster, &mut check, 1_000_000).unwrap();
        assert!(out.converged);
        assert!(cluster.graph().is_complete());
        assert_eq!(out.rounds, cluster.round());
        cluster.shutdown().unwrap();
    }

    #[test]
    fn tiny_mtu_forces_fragment_traffic_without_changing_results() {
        let n = 1200;
        let g = sharded(n, n as u64, 8, 2);
        let mut inproc = ShardedEngine::new(g.clone(), Push, 2);
        let mut cluster = ClusterBuilder::new(g, RuleId::Push, 2)
            .with_mtu(256)
            .spawn()
            .expect("spawn");
        for round in 0..3 {
            assert_eq!(
                inproc.step(),
                cluster.try_step(None).unwrap(),
                "round {round}"
            );
        }
        assert_graphs_equal(inproc.graph(), cluster.graph(), "tiny mtu");
        assert!(cluster.stats().endpoint.fragments_sent > 0);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn explicit_peer_table_is_honored() {
        let g = sharded(800, 800, 1, 2);
        // Reserve a concrete loopback port the builder must use verbatim.
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let mut cluster = ClusterBuilder::new(g, RuleId::Pull, 6)
            .with_peers(vec![addr])
            .spawn()
            .expect("spawn");
        assert_eq!(cluster.peer_table()[1], addr);
        cluster.try_step(None).unwrap();
        cluster.shutdown().unwrap();
    }

    #[test]
    fn single_shard_cluster_degenerates_to_local_rounds() {
        let g = sharded(600, 600, 2, 1);
        let mut inproc = ShardedEngine::new(g.clone(), Pull, 3);
        let mut cluster = ClusterBuilder::new(g, RuleId::Pull, 3)
            .spawn()
            .expect("spawn");
        for round in 0..4 {
            assert_eq!(
                inproc.step(),
                cluster.try_step(None).unwrap(),
                "round {round}"
            );
        }
        assert_graphs_equal(inproc.graph(), cluster.graph(), "single shard");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn stats_count_real_traffic_and_rss() {
        let g = sharded(1500, 1500, 2, 2);
        let mut cluster = ClusterBuilder::new(g, RuleId::Push, 3)
            .spawn()
            .expect("spawn");
        cluster.try_step(None).unwrap();
        cluster.try_step(None).unwrap();
        let s = cluster.stats();
        assert!(s.endpoint.data_datagrams > 0);
        assert!(s.endpoint.datagrams_sent > 0 && s.endpoint.datagrams_received > 0);
        assert_eq!(s.endpoint.injected_drops, 0, "lossless mode never injects");
        assert!(s.snapshot_chunks > 0);
        assert!(s.worker_peak_rss_bytes.iter().all(|&b| b > 0));
        cluster.shutdown().unwrap();
    }
}
