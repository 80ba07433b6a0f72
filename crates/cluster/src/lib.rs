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
//! Datagrams are unreliable, so a [`window`] layer supplies per-peer
//! send windows with ack/nak control frames, timeout + exponential
//! backoff retransmit, duplicate suppression, in-order delivery, and
//! datagram-sized fragmentation for frames over the MTU budget.
//!
//! # Bootstrap: streamed snapshots
//!
//! Workers start empty; the coordinator streams every segment of the
//! starting [`ShardedArenaGraph`] as [`gossip_graph::SegSnapshotChunk`]
//! frames. In the
//! default **streamed** mode the coordinator queues all chunks and the
//! round-0 `Start` behind them (per-link FIFO keeps the order), then
//! runs its own round-0 propose on a helper thread while the main thread
//! keeps pumping the windows — the first propose overlaps the tail of
//! snapshot transfer, and
//! [`ClusterStats::bootstrap_overlap_datagrams`] records how many
//! datagrams were confirmed inside that window.
//! [`ClusterBuilder::with_blocking_bootstrap`] restores the classic
//! handshake (wait for every worker's `Hello`) as the baseline.
//!
//! # Why determinism survives datagram reordering
//!
//! For any `(S, peer table, seeded loss rate)` the final state is
//! **bit-identical to the sequential engine** — pinned by the
//! determinism suite and a shrinking property suite. The chain: the
//! window layer delivers each directed link's frames in send order, the
//! mailbox assembler keys streams by `(source, owner, seq)` so
//! cross-link interleaving cannot matter, and the merge
//! ([`gossip_graph::ShardSeg::apply_half_edges`]) sorts by `(key, slot)`
//! and discards slots after dedup — only the relative order *within one
//! source stream* could ever matter, and that is exactly what the
//! window preserves. Seeded loss is a pure function of
//! `(seed, link, seq)` applied only to first transmissions, so injected
//! fault counts reproduce while repairs stay off the deterministic path.
//!
//! # Quickstart
//!
//! ```
//! use gossip_cluster::ClusterBuilder;
//! use gossip_core::{ComponentwiseComplete, RuleId};
//! use gossip_graph::{generators, ShardedArenaGraph};
//!
//! let und = generators::star(256);
//! let g = ShardedArenaGraph::from_undirected(&und, 2);
//! let mut check = ComponentwiseComplete::for_graph(&und);
//! let mut cluster = ClusterBuilder::new(g, RuleId::Push, 7).spawn().unwrap();
//! let out = cluster.run_until(&mut check, 1_000_000);
//! assert!(out.converged && cluster.graph().is_complete());
//! cluster.shutdown().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use gossip_core::listener::{PhaseEvent, PhaseNanos, RoundListener, RoundPhase};
use gossip_core::seam::{run_engine_until, RoundEngine};
use gossip_core::{
    ConvergenceCheck, MembershipPlan, MembershipStats, Parallelism, RoundStats, RuleId, RunOutcome,
};
use gossip_graph::{SegSnapshotAssembler, ShardSegSnapshot, ShardedArenaGraph};
use gossip_shard::wire::{
    mailbox_frames, DoneBarrier, Frame, MailFrame, MailboxAssembler, ProposedBarrier, WorkerConfig,
    MAX_FRAME_ENTRIES,
};
use gossip_shard::{peak_rss_bytes, protocol_err, ShardReplica, TransportMode, Workers};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::process::Command;
use std::time::{Duration, Instant};

pub mod window;

pub use window::{DatagramLoss, Endpoint, EndpointStats, DEFAULT_MTU};

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
    /// overlapped compute the blocking handshake would have spent idle.
    /// Zero in blocking mode, where the stream fully drains first.
    pub bootstrap_overlap_datagrams: u64,
    /// Wall time the round-0 propose ran while bootstrap datagrams were
    /// still pending — transfer hidden under compute. The blocking
    /// handshake spends this same span idle, so it doubles as the
    /// overlap savings against that baseline. Zero in blocking mode.
    pub bootstrap_overlap_ns: u64,
    /// Wall time the coordinator spent blocked waiting for worker
    /// `Hello`s (blocking mode only; streamed mode never waits).
    pub bootstrap_wait_ns: u64,
    /// Peak RSS reported by each shard in its latest `Done` barrier
    /// (index 0 is the coordinator's own). Genuine per-process
    /// high-water marks in process mode.
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
    blocking_bootstrap: bool,
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
            blocking_bootstrap: false,
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

    /// Switches bootstrap to the blocking-handshake baseline: wait for
    /// every worker's `Hello` before the first `Start` (default:
    /// streamed, overlapping the first propose with snapshot transfer).
    pub fn with_blocking_bootstrap(mut self, blocking: bool) -> Self {
        self.blocking_bootstrap = blocking;
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
        ClusterEngine::spawn(self)
    }
}

/// The coordinator (shard 0) of a datagram shard cluster. Implements
/// [`RoundEngine`], so the convergence seam, listeners, and the serve
/// layer drive it exactly like the in-process engines;
/// [`ClusterEngine::graph`] is the coordinator's authoritative replica,
/// cross-checked against every worker each round.
#[derive(Debug)]
pub struct ClusterEngine {
    /// The authoritative replica; the coordinator is shard 0.
    replica: ShardReplica,
    round: u64,
    endpoint: Endpoint,
    workers: Workers,
    phases: PhaseNanos,
    snapshot_chunks: u64,
    bootstrap_overlap_datagrams: u64,
    bootstrap_overlap_ns: u64,
    bootstrap_wait_ns: u64,
    worker_peak_rss_bytes: Vec<u64>,
    hello_seen: Vec<bool>,
    blocking_bootstrap: bool,
    shut_down: bool,
}

impl ClusterEngine {
    fn spawn(b: ClusterBuilder) -> io::Result<ClusterEngine> {
        let shards = b.graph.shard_count();

        // Resolve the peer table. The coordinator binds first so
        // `peers[0]` is concrete even when auto-assigned.
        let bind = b
            .bind
            .unwrap_or_else(|| "127.0.0.1:0".parse().expect("loopback addr"));
        let coord_socket = UdpSocket::bind(bind)?;
        let mut table = vec![coord_socket.local_addr()?];
        let worker_addrs: Vec<Option<SocketAddr>> = match &b.peers {
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
            let addr = want.unwrap_or_else(|| "127.0.0.1:0".parse().expect("loopback addr"));
            let sock = UdpSocket::bind(addr).map_err(|e| {
                io::Error::new(e.kind(), format!("binding worker {} at {addr}: {e}", i + 1))
            })?;
            table.push(sock.local_addr()?);
            worker_sockets.push(sock);
        }

        let mut workers = Workers::default();
        for (s, socket) in (1..shards).zip(worker_sockets) {
            match b.mode {
                TransportMode::Thread => {
                    let peers = table.clone();
                    let (loss, mtu) = (b.loss, b.mtu);
                    workers.spawn_thread(format!("gossip-cluster-{s}"), move || {
                        run_cluster_shard(socket, peers, s, loss, mtu)
                    })?;
                }
                TransportMode::Process => {
                    drop(socket);
                    let peers_env: Vec<String> = table.iter().map(|a| a.to_string()).collect();
                    let mut cmd = Command::new(std::env::current_exe()?);
                    cmd.env(CLUSTER_SHARD_ENV, s.to_string())
                        .env(CLUSTER_PEERS_ENV, peers_env.join(","))
                        .env(CLUSTER_MTU_ENV, b.mtu.to_string());
                    if let Some(l) = b.loss {
                        cmd.env(
                            CLUSTER_LOSS_ENV,
                            format!("{}:{}:{}", l.seed, l.drop_per_mille, l.dup_per_mille),
                        );
                    }
                    workers.spawn_process(&mut cmd)?;
                }
            }
        }

        let endpoint = Endpoint::new(coord_socket, 0, table.clone(), b.loss, b.mtu)?;
        let mut engine = ClusterEngine {
            replica: ShardReplica::new(
                b.graph,
                b.rule,
                b.seed,
                b.parallelism,
                b.membership,
                Some(0),
            ),
            round: 0,
            endpoint,
            workers,
            phases: PhaseNanos::default(),
            snapshot_chunks: 0,
            bootstrap_overlap_datagrams: 0,
            bootstrap_overlap_ns: 0,
            bootstrap_wait_ns: 0,
            worker_peak_rss_bytes: vec![0; shards],
            hello_seen: vec![false; shards],
            blocking_bootstrap: b.blocking_bootstrap,
            shut_down: false,
        };
        engine.hello_seen[0] = true;

        // Bootstrap: Config then every segment's chunk stream, to every
        // worker. Queued, not awaited — per-link FIFO guarantees each
        // worker sees Config → chunks → (later) Start in order.
        let budget = snapshot_chunk_entries(b.mtu);
        let snapshots: Vec<ShardSegSnapshot> = (0..shards)
            .map(|s| engine.replica.graph().segment(s).snapshot())
            .collect();
        for d in 1..shards {
            engine.endpoint.send_frame(
                d,
                &Frame::Config(engine.replica.worker_config(
                    d,
                    b.loss.is_none(),
                    table.iter().map(|a| a.to_string()).collect(),
                )),
            )?;
            for (s, snap) in snapshots.iter().enumerate() {
                for chunk in snap.chunks(budget) {
                    engine.endpoint.send_frame(
                        d,
                        &Frame::SnapshotChunk {
                            segment: s as u32,
                            chunk,
                        },
                    )?;
                    engine.snapshot_chunks += 1;
                }
            }
        }

        if engine.blocking_bootstrap {
            let t = Instant::now();
            while !engine.hello_seen.iter().all(|&h| h) {
                let (from, frame) = engine.endpoint.recv(RECV_TIMEOUT)?;
                match frame {
                    Frame::Hello { shard } if shard as usize == from => {
                        engine.hello_seen[from] = true;
                    }
                    other => {
                        return Err(protocol_err(format!(
                            "worker {from}: expected Hello during blocking bootstrap, got {other:?}"
                        )))
                    }
                }
            }
            engine.bootstrap_wait_ns = t.elapsed().as_nanos() as u64;
        }
        Ok(engine)
    }

    /// The authoritative graph `G_t` (the coordinator's replica).
    #[inline]
    pub fn graph(&self) -> &ShardedArenaGraph {
        self.replica.graph()
    }

    /// Rounds executed so far.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of shards (coordinator included).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.replica.shards()
    }

    /// The rule's registry id.
    pub fn rule(&self) -> RuleId {
        self.replica.rule()
    }

    /// The resolved static peer table (shard order; index 0 is the
    /// coordinator).
    pub fn peer_table(&self) -> &[SocketAddr] {
        self.endpoint.peers()
    }

    /// Cumulative per-phase wall time. `Propose`/`Route`/`Serialize` are
    /// the max over shards (the critical path), `Flush` coordinator send
    /// time, `Drain` coordinator collect time, `Apply` the coordinator's
    /// own merge.
    pub fn phases(&self) -> PhaseNanos {
        self.phases
    }

    /// Cluster counters so far.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            endpoint: self.endpoint.stats().clone(),
            snapshot_chunks: self.snapshot_chunks,
            bootstrap_overlap_datagrams: self.bootstrap_overlap_datagrams,
            bootstrap_overlap_ns: self.bootstrap_overlap_ns,
            bootstrap_wait_ns: self.bootstrap_wait_ns,
            worker_peak_rss_bytes: self.worker_peak_rss_bytes.clone(),
        }
    }

    /// Executes one synchronous round across the cluster.
    pub fn step(&mut self) -> RoundStats {
        self.try_step(None).expect("cluster round failed")
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

        // Membership — same pre-increment round key as every engine.
        let t = Instant::now();
        let mem_delta = self.replica.apply_membership(r);
        let mem_nanos = t.elapsed().as_nanos() as u64;

        // Kick off the round everywhere, then do our own propose while
        // the Start frames (and, in round 0, the bootstrap tail) drain.
        let mut flush_ns = 0u64;
        let t = Instant::now();
        for d in 1..shards {
            self.endpoint.send_frame(d, &Frame::Start { round: r })?;
        }
        flush_ns += t.elapsed().as_nanos() as u64;
        self.round += 1;

        let p = if r == 0 && !self.blocking_bootstrap {
            // The streamed-bootstrap overlap: the windows only move when
            // the endpoint is pumped, so run the first propose on a
            // helper thread and keep draining the snapshot stream under
            // it. Everything confirmed in this window transferred during
            // compute the blocking handshake would have spent idle.
            let pending_before = self.endpoint.pending_datagrams();
            let replica = &mut self.replica;
            let endpoint = &mut self.endpoint;
            let mut overlap_ns = 0u64;
            let p = std::thread::scope(|scope| -> io::Result<_> {
                let propose = scope.spawn(move || replica.propose_and_route(r));
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
            self.bootstrap_overlap_ns = overlap_ns;
            self.bootstrap_overlap_datagrams =
                pending_before.saturating_sub(self.endpoint.pending_datagrams());
            p
        } else {
            self.replica.propose_and_route(r)
        };
        let mut proposed_total = p.proposed;
        let (mut propose_ns, mut route_ns) = (p.propose_ns, p.route_ns);

        // Upload our streams peer-to-peer: every (0, owner) stream goes
        // to every worker.
        let t = Instant::now();
        for d in 1..shards {
            for (owner, mailbox) in self.replica.mail_out().iter().enumerate() {
                for f in mailbox_frames(r, 0, owner as u32, mailbox, MAX_FRAME_ENTRIES) {
                    self.endpoint.send_frame(d, &Frame::Mail(f))?;
                }
            }
        }
        let mut serialize_ns = t.elapsed().as_nanos() as u64;

        // Collect: peer mail until our assembler completes, plus every
        // worker's Proposed and Done barriers.
        let t = Instant::now();
        let mut asm = MailboxAssembler::for_worker(shards, 0, r, false);
        let mut proposed_seen = vec![false; shards];
        let mut done_seen = vec![false; shards];
        proposed_seen[0] = true;
        done_seen[0] = true;
        let mut worker_added = vec![0u64; shards];
        while !(asm.is_complete()
            && proposed_seen.iter().all(|&p| p)
            && done_seen.iter().all(|&d| d))
        {
            let (from, frame) = self.endpoint.recv(RECV_TIMEOUT)?;
            match frame {
                Frame::Mail(f) if f.round == r && f.source as usize == from => {
                    asm.accept(&f).map_err(protocol_err)?;
                }
                Frame::Proposed(b) if b.round == r && b.source as usize == from => {
                    proposed_total += b.proposed;
                    propose_ns = propose_ns.max(b.propose_ns);
                    route_ns = route_ns.max(b.route_ns);
                    serialize_ns = serialize_ns.max(b.serialize_ns);
                    proposed_seen[from] = true;
                }
                Frame::Done(b) if b.round == r && b.source as usize == from => {
                    worker_added[from] = b.added;
                    self.worker_peak_rss_bytes[from] =
                        self.worker_peak_rss_bytes[from].max(b.peak_rss_bytes);
                    done_seen[from] = true;
                }
                Frame::Hello { shard } if shard as usize == from => {
                    // Streamed bootstrap: the worker's assembly ack
                    // arrives mid-round instead of up front.
                    self.hello_seen[from] = true;
                }
                other => {
                    return Err(protocol_err(format!(
                        "peer {from}: unexpected {other:?} in round {r}"
                    )))
                }
            }
        }
        let drain_ns = t.elapsed().as_nanos() as u64;

        // Authoritative apply: full grid, own source from local buffers.
        let t_apply = Instant::now();
        self.replica.apply_grid(&mut asm.into_mail());
        let apply_ns = t_apply.elapsed().as_nanos() as u64;
        self.worker_peak_rss_bytes[0] =
            self.worker_peak_rss_bytes[0].max(peak_rss_bytes().unwrap_or(0));

        // Cross-check every worker's own-segment count against ours — a
        // divergent replica is a protocol bug, not something to paper
        // over.
        for (d, &theirs) in worker_added.iter().enumerate().take(shards).skip(1) {
            if theirs != self.replica.added()[d] {
                return Err(protocol_err(format!(
                    "shard {d} added {theirs} edges in round {r}, coordinator added {}",
                    self.replica.added()[d]
                )));
            }
        }

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

    /// Sends `Shutdown` to every worker, drains the windows, and reaps
    /// threads/processes. Called automatically on drop; explicit calls
    /// surface errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        if self.shut_down {
            return Ok(());
        }
        self.shut_down = true;
        let mut first_err: Option<io::Error> = None;
        for d in 1..self.shard_count() {
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
}

impl Drop for ClusterEngine {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl RoundEngine for ClusterEngine {
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
        self.try_step(Some(listener)).expect("cluster round failed")
    }
}

/// If [`CLUSTER_SHARD_ENV`] is set, runs this process as a cluster shard
/// worker (binding its slot of the peer table from
/// [`CLUSTER_PEERS_ENV`]) and exits; otherwise returns immediately.
/// Binaries that may host [`TransportMode::Process`] cluster workers —
/// the CLI, `exp_cluster`, `run_all`, the `udp_process` test — call this
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
        let parts: Vec<&str> = spec.split(':').collect();
        let parse = |i: usize| -> u64 {
            parts
                .get(i)
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| exit(format!("bad {CLUSTER_LOSS_ENV}={spec}")))
        };
        DatagramLoss {
            seed: parse(0),
            drop_per_mille: parse(1) as u16,
            dup_per_mille: parse(2) as u16,
        }
    });
    let mtu = std::env::var(CLUSTER_MTU_ENV)
        .ok()
        .and_then(|m| m.parse().ok())
        .unwrap_or(DEFAULT_MTU);

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
    match run_cluster_shard(socket, peers, shard, loss, mtu) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("gossip cluster worker: {e}");
            std::process::exit(1);
        }
    }
}

/// The worker loop for shard `shard`, shared verbatim by thread mode and
/// process mode: bootstrap (Config + streamed snapshot chunks, answered
/// with `Hello`), then rounds driven by the coordinator's `Start`
/// barriers until `Shutdown`.
pub fn run_cluster_shard(
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    shard: usize,
    loss: Option<DatagramLoss>,
    mtu: usize,
) -> io::Result<()> {
    let mut ep = Endpoint::new(socket, shard, peers, loss, mtu)?;

    // Bootstrap. Early round-0 mail from faster peers is legal here —
    // only the coordinator's own link is FIFO-ordered ahead of Start.
    let mut cfg: Option<WorkerConfig> = None;
    let mut asms: Vec<SegSnapshotAssembler> = Vec::new();
    let mut segments_done = 0usize;
    let mut pending: Vec<MailFrame> = Vec::new();
    let cfg = loop {
        let (from, frame) = ep.recv(RECV_TIMEOUT)?;
        match frame {
            Frame::Config(c) if from == 0 && cfg.is_none() => {
                if c.shard as usize != shard || c.shards as usize != ep.peers().len() {
                    return Err(protocol_err(format!(
                        "config for shard {}/{} but I am {shard}/{}",
                        c.shard,
                        c.shards,
                        ep.peers().len()
                    )));
                }
                asms = (0..c.shards).map(|_| SegSnapshotAssembler::new()).collect();
                cfg = Some(c);
            }
            Frame::SnapshotChunk { segment, chunk } if from == 0 => {
                let asm = asms
                    .get_mut(segment as usize)
                    .ok_or_else(|| protocol_err(format!("chunk for segment {segment}")))?;
                if asm.accept(&chunk).map_err(protocol_err)? {
                    segments_done += 1;
                }
                if segments_done == asms.len() {
                    break cfg.take().expect("config precedes chunks on a FIFO link");
                }
            }
            Frame::Mail(f) if f.round == 0 => pending.push(f),
            other => {
                return Err(protocol_err(format!(
                    "peer {from}: unexpected {other:?} during bootstrap"
                )))
            }
        }
    };
    let snaps: Vec<ShardSegSnapshot> = asms.into_iter().map(SegSnapshotAssembler::finish).collect();
    let mut replica = ShardReplica::from_config(cfg, &snaps)?;
    ep.send_frame(
        0,
        &Frame::Hello {
            shard: shard as u32,
        },
    )?;

    let mut expected = 0u64;
    loop {
        let (from, frame) = ep.recv(RECV_TIMEOUT)?;
        match frame {
            Frame::Start { round } if from == 0 && round == expected => {
                cluster_round(round, &mut replica, &mut ep, &mut pending)?;
                expected += 1;
            }
            // A faster peer's mail for the round we have not started yet
            // (it cannot be further ahead: Start{r+1} implies every shard
            // finished r).
            Frame::Mail(f) if f.round == expected => pending.push(f),
            Frame::Shutdown if from == 0 => {
                ep.drain(Duration::from_secs(30))?;
                return Ok(());
            }
            other => {
                return Err(protocol_err(format!(
                    "peer {from}: expected Start/Shutdown, got {other:?}"
                )))
            }
        }
    }
}

fn cluster_round(
    r: u64,
    replica: &mut ShardReplica,
    ep: &mut Endpoint,
    pending: &mut Vec<MailFrame>,
) -> io::Result<()> {
    let shards = replica.shards();
    let shard = replica.shard().expect("workers own a span");

    replica.apply_membership(r);
    let p = replica.propose_and_route(r);

    // Peer-to-peer upload: every (shard, owner) stream to every peer —
    // no supervisor hop.
    let t = Instant::now();
    for d in 0..shards {
        if d == shard {
            continue;
        }
        for (owner, mailbox) in replica.mail_out().iter().enumerate() {
            for f in mailbox_frames(r, shard as u32, owner as u32, mailbox, MAX_FRAME_ENTRIES) {
                ep.send_frame(d, &Frame::Mail(f))?;
            }
        }
    }
    let serialize_ns = t.elapsed().as_nanos() as u64;
    ep.send_frame(
        0,
        &Frame::Proposed(ProposedBarrier {
            round: r,
            source: shard as u32,
            proposed: p.proposed,
            propose_ns: p.propose_ns,
            route_ns: p.route_ns,
            serialize_ns,
        }),
    )?;

    // Collect every other shard's streams. The window layer already
    // repaired loss and restored per-link order, so completeness is just
    // "all expected streams closed".
    let t = Instant::now();
    let mut asm = MailboxAssembler::for_worker(shards, shard, r, false);
    for f in pending.drain(..) {
        asm.accept(&f).map_err(protocol_err)?;
    }
    while !asm.is_complete() {
        let (from, frame) = ep.recv(RECV_TIMEOUT)?;
        match frame {
            Frame::Mail(f) if f.round == r && f.source as usize == from => {
                asm.accept(&f).map_err(protocol_err)?;
            }
            other => {
                return Err(protocol_err(format!(
                    "peer {from}: expected round-{r} mail, got {other:?}"
                )))
            }
        }
    }
    let drain_ns = t.elapsed().as_nanos() as u64;

    // Apply the full grid — peer streams from the assembler, this
    // shard's own from its local route buffers — to the replica.
    let t = Instant::now();
    replica.apply_grid(&mut asm.into_mail());
    let apply_ns = t.elapsed().as_nanos() as u64;

    ep.send_frame(
        0,
        &Frame::Done(DoneBarrier {
            round: r,
            source: shard as u32,
            added: replica.added()[shard],
            apply_ns,
            drain_ns,
            peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        }),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::rng::stream_rng;
    use gossip_core::{ChurnBursts, ComponentwiseComplete, Pull, Push};
    use gossip_graph::generators;
    use gossip_shard::ShardedEngine;

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
                    cluster.step(),
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
            assert_eq!(inproc.step(), cluster.step(), "round {round}");
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
    fn blocking_bootstrap_matches_streamed_and_reports_no_overlap() {
        let n = 1500;
        let g = sharded(n, n as u64, 3, 2);
        let mut streamed = ClusterBuilder::new(g.clone(), RuleId::Pull, 4)
            .spawn()
            .expect("spawn streamed");
        let mut blocking = ClusterBuilder::new(g, RuleId::Pull, 4)
            .with_blocking_bootstrap(true)
            .spawn()
            .expect("spawn blocking");
        for round in 0..3 {
            assert_eq!(streamed.step(), blocking.step(), "round {round}");
        }
        assert_graphs_equal(streamed.graph(), blocking.graph(), "bootstrap modes");
        assert_eq!(blocking.stats().bootstrap_overlap_datagrams, 0);
        assert!(blocking.stats().bootstrap_wait_ns > 0);
        assert!(streamed.stats().snapshot_chunks > 0);
        streamed.shutdown().unwrap();
        blocking.shutdown().unwrap();
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
            assert_eq!(inproc.step(), cluster.step(), "round {round}");
        }
        assert_graphs_equal(inproc.graph(), cluster.graph(), "churn over datagrams");
        cluster.shutdown().unwrap();
    }

    #[test]
    fn cluster_drives_the_convergence_seam() {
        let und = generators::star(256);
        let g = ShardedArenaGraph::from_undirected(&und, 2);
        let mut check = ComponentwiseComplete::for_graph(&und);
        let mut cluster = ClusterBuilder::new(g, RuleId::Push, 4)
            .spawn()
            .expect("spawn");
        let out = cluster.run_until(&mut check, 1_000_000);
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
            assert_eq!(inproc.step(), cluster.step(), "round {round}");
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
        cluster.step();
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
            assert_eq!(inproc.step(), cluster.step(), "round {round}");
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
        cluster.step();
        cluster.step();
        let s = cluster.stats();
        assert!(s.endpoint.data_datagrams > 0);
        assert!(s.endpoint.datagrams_sent > 0 && s.endpoint.datagrams_received > 0);
        assert_eq!(s.endpoint.injected_drops, 0, "lossless mode never injects");
        assert!(s.snapshot_chunks > 0);
        assert!(s.worker_peak_rss_bytes.iter().all(|&b| b > 0));
        cluster.shutdown().unwrap();
    }
}
