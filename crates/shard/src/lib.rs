//! # gossip-shard
//!
//! The **deterministic multi-shard round engine**: the synchronous-round
//! semantics of [`gossip_core::Engine`], executed as `S` independent shards
//! so both phases of a round — propose *and* apply — run in parallel on the
//! rayon shim's persistent pool. This is what takes the simulation from
//! "propose parallelizes, apply is one sequential sort" (the wall-clock
//! ceiling at `n ≥ 2^17` after the arena work) to a pipeline with no
//! sequential phase at all, sized for `10^7`-node graphs.
//!
//! One round is three steps:
//!
//! 1. **Propose, shard-parallel.** The exact shared propose phase of the
//!    sequential engine ([`gossip_core::engine::propose_round`]): fixed
//!    1024-node chunks, per-chunk flat `(proposer, a, b)` buffers, each
//!    node drawing from its own `(seed, round, node)` RNG stream against
//!    the immutable `G_t`.
//! 2. **Route.** Each proposal `(u, a, b)` becomes two half-edges —
//!    `(a, b)` owned by `owner(a)` and `(b, a)` owned by `owner(b)` — and
//!    is appended to the mailbox `mail[source][owner]`, tagged with its
//!    slot in the source's node-order proposal stream. Sources process their
//!    chunks in index order, so every mailbox is internally in node order.
//! 3. **Apply, shard-parallel.** Owner `t` concatenates
//!    `mail[0][t], mail[1][t], …` — fixed *(source shard, chunk index)*
//!    order — which is exactly the node-order proposal stream restricted to
//!    `t`'s rows, then merges it into its own arena segment
//!    ([`gossip_graph::ShardSeg::apply_half_edges`]) with no locks and no
//!    cross-shard writes.
//!
//! ## Determinism argument
//!
//! The engine is **bit-identical to the sequential engine for every
//! `(S, thread count)`** — pinned by `crates/core/tests/determinism.rs`
//! across `S ∈ {1, 2, 8}` and `RAYON_NUM_THREADS ∈ {1, 2, 8}`. The chain:
//!
//! * The propose phase is chunk-decomposed independently of thread count,
//!   and shard spans are chunk-aligned ([`gossip_graph::SHARD_ALIGN`] ==
//!   [`PROPOSAL_CHUNK`], asserted at compile time), so chunk `c` has
//!   exactly one source shard and the routed stream per owner concatenates
//!   to the same node-order stream the sequential engine applies.
//! * Rows are sorted and canonical, so the merge result per row depends
//!   only on the *set* of half-edges routed to it — and that set is a pure
//!   function of the proposal stream. Shard scheduling order cannot leak in.
//! * The round's `added` count sums each shard's count of new *canonical*
//!   half-edges (smaller endpoint owned locally): every new edge is counted
//!   by exactly one shard, so the sum equals the sequential dedup count.
//!
//! What a shard does never depends on what another shard does *in the same
//! round* — exactly the paper's model, where every node acts against `G_t`.
//!
//! ## Quickstart
//!
//! ```
//! use gossip_core::{ComponentwiseComplete, Pull};
//! use gossip_graph::{generators, ShardedArenaGraph};
//! use gossip_shard::ShardedEngine;
//!
//! let g0 = ShardedArenaGraph::from_arena(&generators::star(64), 4);
//! let mut check = ComponentwiseComplete::for_graph(&generators::star(64));
//! let mut engine = ShardedEngine::new(g0, Pull, 42);
//! let out = engine.run_until(&mut check, 1_000_000);
//! assert!(out.converged);
//! assert!(engine.graph().is_complete());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use gossip_core::engine::{propose_round, PROPOSAL_CHUNK};
use gossip_core::listener::{PhaseEvent, RoundListener, RoundPhase};
use gossip_core::seam::{run_engine_until, RoundEngine};
use gossip_core::{
    ConvergenceCheck, EngineBuilder, MembershipPlan, MembershipStats, Parallelism, ProposalRule,
    RoundStats, RunOutcome, TaggedProposal,
};
use gossip_graph::{HalfEdge, MergeScratch, ShardedArenaGraph, SHARD_ALIGN};
use rayon::prelude::*;
use std::time::Instant;

pub use gossip_core::listener::PhaseNanos;

pub mod driver;
pub mod framed;
pub mod transport;
pub mod wire;

use driver::{apply_grid, route_span};
pub use driver::{
    peak_rss_bytes, protocol_err, run_shard, run_shard_process, RoundInbox, ShardLink,
    ShardReplica, ShardRoundDriver, Workers,
};
pub use framed::{parse_framed, FramedConn};
pub use transport::{
    maybe_run_worker, HubLink, TransportBuilder, TransportEngine, TransportMode, TransportStats,
};
pub use wire::{
    fragment_frames, AckFrame, Defragmenter, FragmentError, FragmentFrame, Frame, MailboxAssembler,
    WireError, WireStats, MAX_FRAME_BYTES, MAX_FRAME_ENTRIES,
};

// Shard spans are aligned to propose chunks so that a chunk never straddles
// two source shards — the mailbox ordering proof in the module docs leans
// on this equality.
const _: () = assert!(
    PROPOSAL_CHUNK == SHARD_ALIGN,
    "shard alignment must equal the engine's propose chunk"
);

/// Drives a [`ProposalRule`] over a [`ShardedArenaGraph`] in synchronous
/// rounds with shard-parallel propose, route, and apply phases.
///
/// Bit-identical to [`gossip_core::Engine`] on the same `(graph, rule,
/// seed)` for any shard count and any thread count; see the
/// [module docs](self) for the argument.
#[derive(Debug)]
pub struct ShardedEngine<R> {
    graph: ShardedArenaGraph,
    rule: R,
    seed: u64,
    round: u64,
    parallelism: Parallelism,
    /// Flat per-chunk proposal buffers, reused across rounds (identical
    /// decomposition to the sequential engine's).
    chunk_bufs: Vec<Vec<TaggedProposal>>,
    /// `mail[source][owner]`: half-edges proposed by `source`'s nodes whose
    /// row lives in `owner`, appended in chunk order. Reused across rounds.
    mail: Vec<Vec<Vec<HalfEdge>>>,
    /// Per-owner merge scratch, reused across rounds.
    scratch: Vec<MergeScratch>,
    /// Per-owner added-edge counters for the current round.
    added: Vec<u64>,
    phases: PhaseNanos,
    /// Optional join/leave schedule, applied at the top of every step
    /// (before the propose phase) with the pre-increment round counter —
    /// the same seam, at the same point, as the sequential engine's.
    membership: Option<MembershipPlan>,
}

impl<R: ProposalRule<ShardedArenaGraph>> ShardedEngine<R> {
    /// Creates an engine over `graph` with the given rule and experiment
    /// seed. The shard count is the graph's ([`ShardedArenaGraph::shard_count`]).
    pub fn new(graph: ShardedArenaGraph, rule: R, seed: u64) -> Self {
        let chunks = graph.n().div_ceil(PROPOSAL_CHUNK);
        let shards = graph.shard_count();
        ShardedEngine {
            graph,
            rule,
            seed,
            round: 0,
            parallelism: Parallelism::default(),
            chunk_bufs: vec![Vec::new(); chunks],
            mail: vec![vec![Vec::new(); shards]; shards],
            scratch: vec![MergeScratch::default(); shards],
            added: vec![0; shards],
            phases: PhaseNanos::default(),
            membership: None,
        }
    }

    /// Sets the parallelism policy (builder style). The policy gates all
    /// three phases at once; results are identical either way.
    pub fn with_parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Installs a membership plan (builder style): join/leave events apply
    /// at the top of each step, before the propose phase, keyed by the
    /// same pre-increment round counter the sequential engine uses — so
    /// sharded and sequential runs under one plan stay bit-identical.
    pub fn with_membership(mut self, plan: MembershipPlan) -> Self {
        self.membership = Some(plan);
        self
    }

    /// Cumulative stats of membership events applied so far (zero if no
    /// plan is installed).
    pub fn membership_stats(&self) -> MembershipStats {
        self.membership
            .as_ref()
            .map(MembershipPlan::stats)
            .unwrap_or_default()
    }

    /// The current graph `G_t`.
    #[inline]
    pub fn graph(&self) -> &ShardedArenaGraph {
        &self.graph
    }

    /// Consumes the engine, returning the final graph.
    pub fn into_graph(self) -> ShardedArenaGraph {
        self.graph
    }

    /// Rounds executed so far (`t`).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The rule's name.
    pub fn rule_name(&self) -> &'static str {
        self.rule.name()
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.graph.shard_count()
    }

    /// Cumulative wall time per phase since construction (or the last
    /// [`ShardedEngine::reset_phases`]).
    pub fn phases(&self) -> PhaseNanos {
        self.phases
    }

    /// Zeroes the phase timers (e.g. after warm-up rounds).
    pub fn reset_phases(&mut self) {
        self.phases = PhaseNanos::default();
    }

    /// Executes one synchronous round; returns what happened.
    pub fn step(&mut self) -> RoundStats {
        self.step_inner(None)
    }

    /// One round, with per-phase [`PhaseEvent`]s delivered to `listener` as
    /// each phase completes (the cumulative [`ShardedEngine::phases`]
    /// timers absorb the same events). [`RoundEngine::step_listened`]
    /// routes here.
    fn step_inner(
        &mut self,
        mut listener: Option<&mut dyn RoundListener<ShardedArenaGraph>>,
    ) -> RoundStats {
        let parallel = self.parallelism.engages(self.graph.n());
        let plan = *self.graph.plan();

        // Phase 0 (membership): apply due join/leave events before anything
        // observes the graph this round — the same point, keyed by the same
        // pre-increment counter, as the sequential engine. `remove_member`
        // routes every row write through its owner segment, so the
        // per-segment invariants (sorted rows, exact m_canonical) hold for
        // the apply fan-out below.
        let t = Instant::now();
        let mem_delta = match self.membership.as_mut() {
            Some(p) => p.apply_due(self.round, &mut self.graph),
            None => MembershipStats::default(),
        };
        let mem_nanos = t.elapsed().as_nanos() as u64;

        // Phase 1: propose — the sequential engine's shared chunk phase.
        let t = Instant::now();
        propose_round(
            &self.graph,
            &self.rule,
            self.seed,
            self.round,
            &mut self.chunk_bufs,
            parallel,
        );
        self.round += 1;
        let mut emit = |phases: &mut PhaseNanos, phase: RoundPhase, nanos: u64, round: u64| {
            let ev = PhaseEvent {
                round,
                phase,
                nanos,
            };
            phases.absorb(&ev);
            if let Some(l) = listener.as_deref_mut() {
                l.on_phase(&ev);
            }
        };
        if mem_delta != MembershipStats::default() {
            emit(
                &mut self.phases,
                RoundPhase::Membership,
                mem_nanos,
                self.round,
            );
        }
        emit(
            &mut self.phases,
            RoundPhase::Propose,
            t.elapsed().as_nanos() as u64,
            self.round,
        );

        // Phase 2: route — source shard s walks its own chunks in index
        // order, appending both half-edges of each proposal to the owner
        // mailboxes. Mailboxes end up internally ordered by (chunk, slot).
        let t = Instant::now();
        let proposed: u64 = self.chunk_bufs.iter().map(|b| b.len() as u64).sum();
        assert!(
            proposed < u32::MAX as u64,
            "round proposal stream overflows u32 slots"
        );
        let chunk_bufs = &self.chunk_bufs;
        let route = |(s, boxes): (usize, &mut Vec<Vec<HalfEdge>>)| {
            route_span(&plan, chunk_bufs, plan.chunk_span(s), boxes);
        };
        if parallel {
            self.mail.par_iter_mut().enumerate().for_each(route);
        } else {
            self.mail.iter_mut().enumerate().for_each(route);
        }
        emit(
            &mut self.phases,
            RoundPhase::Route,
            t.elapsed().as_nanos() as u64,
            self.round,
        );

        // Phase 3: apply — owner t merges its mailbox column in fixed
        // (source shard, chunk index) order into its own segment.
        let t = Instant::now();
        apply_grid(
            &mut self.graph,
            &mut self.scratch,
            &mut self.added,
            parallel,
            &self.mail,
        );
        emit(
            &mut self.phases,
            RoundPhase::Apply,
            t.elapsed().as_nanos() as u64,
            self.round,
        );

        RoundStats {
            proposed,
            added: self.added.iter().sum(),
        }
    }

    /// Runs until `check` fires or `max_rounds` is reached (the shared loop
    /// from [`gossip_core::seam`]).
    pub fn run_until<C: ConvergenceCheck<ShardedArenaGraph>>(
        &mut self,
        check: &mut C,
        max_rounds: u64,
    ) -> RunOutcome {
        run_engine_until(self, check, max_rounds)
    }
}

impl<R: ProposalRule<ShardedArenaGraph>> RoundEngine for ShardedEngine<R> {
    type Graph = ShardedArenaGraph;
    #[inline]
    fn graph(&self) -> &ShardedArenaGraph {
        &self.graph
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
        self.step_inner(Some(listener))
    }
}

/// Builds the sharded variant from a [`gossip_core::EngineBuilder`] —
/// the downstream extension of the core construction path (core cannot
/// name `ShardedEngine`). The shard count is carried by the graph itself
/// ([`ShardedArenaGraph::shard_count`]), so no extra plan parameter is
/// needed here.
///
/// ```
/// use gossip_core::{ComponentwiseComplete, EngineBuilder, Pull};
/// use gossip_graph::{generators, ShardedArenaGraph};
/// use gossip_shard::BuildSharded;
///
/// let und = generators::star(64);
/// let mut check = ComponentwiseComplete::for_graph(&und);
/// let mut engine =
///     EngineBuilder::new(ShardedArenaGraph::from_arena(&und, 8), Pull, 7).build_sharded();
/// assert!(engine.run_until(&mut check, 1_000_000).converged);
/// ```
pub trait BuildSharded<R> {
    /// Builds the multi-shard round engine.
    fn build_sharded(self) -> ShardedEngine<R>;
}

impl<R: ProposalRule<ShardedArenaGraph>> BuildSharded<R> for EngineBuilder<ShardedArenaGraph, R> {
    fn build_sharded(self) -> ShardedEngine<R> {
        let (graph, rule, seed, parallelism, membership) = self.into_parts();
        let mut engine = ShardedEngine::new(graph, rule, seed).with_parallelism(parallelism);
        if let Some(plan) = membership {
            engine = engine.with_membership(plan);
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::rng::stream_rng;
    use gossip_core::{ComponentwiseComplete, Engine, Never, Pull, Push};
    use gossip_graph::generators;

    fn sharded(n: usize, extra: u64, seed: u64, shards: usize) -> ShardedArenaGraph {
        let und = generators::tree_plus_random_edges(n, extra, &mut stream_rng(seed, 0, 0));
        ShardedArenaGraph::from_arena(&und, shards)
    }

    #[test]
    fn completes_a_star() {
        let und = generators::star(40);
        let g = ShardedArenaGraph::from_arena(&und, 4);
        let mut check = ComponentwiseComplete::for_graph(&und);
        let mut e = ShardedEngine::new(g, Push, 0xBEEF);
        let out = e.run_until(&mut check, 1_000_000);
        assert!(out.converged);
        assert!(e.graph().is_complete());
        assert_eq!(out.rounds, e.round());
        e.graph().validate().unwrap();
    }

    #[test]
    fn stats_match_sequential_engine_every_round() {
        // The core contract, at unit-test scale: per-round stats and final
        // rows equal the sequential arena engine's, for several shard
        // counts, rules, and a node count that is not chunk-aligned.
        let n = 3000;
        for shards in [1, 2, 3, 8] {
            let arena =
                generators::tree_plus_random_edges(n, 2 * n as u64, &mut stream_rng(4, 0, 0));
            let g = ShardedArenaGraph::from_arena(&arena, shards);
            let mut seq = Engine::new(arena, Pull, 77).with_parallelism(Parallelism::Sequential);
            let mut shd = ShardedEngine::new(g, Pull, 77);
            for round in 0..8 {
                assert_eq!(
                    seq.step(),
                    shd.step(),
                    "S={shards} round={round}: stats diverged"
                );
            }
            for u in seq.graph().nodes() {
                assert_eq!(
                    seq.graph().neighbors(u),
                    shd.graph().neighbors(u),
                    "S={shards}: row {u:?} diverged"
                );
            }
            shd.graph().validate().unwrap();
        }
    }

    #[test]
    fn parallel_and_sequential_policies_agree() {
        let g = sharded(2500, 5000, 9, 2);
        let mut a =
            ShardedEngine::new(g.clone(), Push, 5).with_parallelism(Parallelism::Sequential);
        let mut b = ShardedEngine::new(g, Push, 5).with_parallelism(Parallelism::Parallel);
        for round in 0..10 {
            assert_eq!(a.step(), b.step(), "round {round}");
        }
        for u in a.graph().nodes() {
            assert_eq!(a.graph().neighbors(u), b.graph().neighbors(u));
        }
    }

    #[test]
    fn empty_and_tiny_graphs_are_noops() {
        let mut e = ShardedEngine::new(ShardedArenaGraph::new(0, 4), Push, 1);
        assert_eq!(e.step(), RoundStats::default());
        let mut e1 = ShardedEngine::new(ShardedArenaGraph::new(1, 8), Pull, 1);
        assert_eq!(e1.step(), RoundStats::default());
        assert_eq!(e1.round(), 1);
    }

    #[test]
    fn phase_timers_accumulate_and_reset() {
        let g = sharded(1200, 2400, 2, 2);
        let mut e = ShardedEngine::new(g, Push, 3);
        for _ in 0..3 {
            e.step();
        }
        let p = e.phases();
        assert!(p.total() > 0);
        assert!(p.propose > 0 && p.apply > 0);
        e.reset_phases();
        assert_eq!(e.phases(), PhaseNanos::default());
    }

    #[test]
    fn phase_events_mirror_cumulative_timers() {
        use gossip_core::listener::{PhaseAccumulator, RoundPhase};
        use gossip_core::seam::run_engine_listened;
        let g = sharded(1500, 3000, 4, 3);
        let mut e = ShardedEngine::new(g, Pull, 8);
        let mut acc = PhaseAccumulator::new();
        run_engine_listened(&mut e, &mut acc, 5);
        // The listener saw exactly what the engine's own timers absorbed.
        assert_eq!(acc.totals(), e.phases());
        assert!(acc.totals().propose > 0 && acc.totals().apply > 0);
        let _ = RoundPhase::Route; // all three variants flow through absorb
    }

    #[test]
    fn builder_extension_matches_hand_assembly() {
        use gossip_core::EngineBuilder;
        let g = sharded(2000, 4000, 3, 4);
        let mut hand = ShardedEngine::new(g.clone(), Push, 21);
        let mut built = EngineBuilder::new(g, Push, 21).build_sharded();
        for round in 0..6 {
            assert_eq!(hand.step(), built.step(), "round {round}");
        }
        for u in hand.graph().nodes() {
            assert_eq!(hand.graph().neighbors(u), built.graph().neighbors(u));
        }
    }

    #[test]
    fn run_until_budget_and_resume() {
        let g = sharded(1500, 3000, 6, 3);
        let mut resumed = ShardedEngine::new(g.clone(), Pull, 5);
        resumed.run_until(&mut Never, 3);
        let second = resumed.run_until(&mut Never, 4);
        assert_eq!(second.rounds, 7);
        let mut fresh = ShardedEngine::new(g, Pull, 5);
        let all = fresh.run_until(&mut Never, 7);
        assert_eq!(all.final_edges, second.final_edges);
    }
}
