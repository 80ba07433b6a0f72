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
//! One round is three steps, and [`ShardReplica`] is the only code that
//! runs them: the in-process [`ShardedEngine`] is a replica that owns
//! every span, plus its round counter and phase timers, and the
//! cross-process engines ([`transport`], `gossip-cluster`) run the same
//! replica with one span or none per participant.
//!
//! 1. **Propose, shard-parallel.** The sequential engine's chunk phase
//!    ([`gossip_core::engine`]), restricted to the owned spans: fixed
//!    1024-node chunks, per-chunk flat `(proposer, a, b)` buffers,
//!    each node drawing from its own `(seed, round, node)` RNG stream
//!    against the immutable `G_t`.
//! 2. **Route.** Each proposal `(u, a, b)` becomes two half-edges —
//!    `(a, b)` owned by `owner(a)` and `(b, a)` owned by `owner(b)` — and
//!    is appended to the mailbox `mail[source][owner]`, tagged with its
//!    slot in the source's node-order proposal stream. Sources process their
//!    chunks in index order, so every mailbox is internally in node order.
//! 3. **Apply, shard-parallel.** Owner `t` concatenates
//!    `mail[0][t], mail[1][t], …` — fixed *(source shard, chunk index)*
//!    order — which is exactly the node-order proposal stream restricted to
//!    `t`'s rows, then merges it into its own arena segment
//!    ([`gossip_graph::SegCommit::apply_half_edges`]) with no locks and no
//!    cross-shard writes. A segment a published snapshot still shares is
//!    rebuilt by that merge into a new one, not copied first.
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
//! use gossip_core::{run_engine_until, ComponentwiseComplete, Pull};
//! use gossip_graph::{generators, ShardedArenaGraph};
//! use gossip_shard::ShardedEngine;
//!
//! let g0 = ShardedArenaGraph::from_arena(&generators::star(64), 4);
//! let mut check = ComponentwiseComplete::for_graph(&generators::star(64));
//! let mut engine = ShardedEngine::new(g0, Pull, 42);
//! let Ok(out) = run_engine_until(&mut engine, &mut check, 1_000_000);
//! assert!(out.converged);
//! assert!(engine.graph().is_complete());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]

use gossip_core::engine::PROPOSAL_CHUNK;
use gossip_core::listener::{RoundListener, RoundPhase};
use gossip_core::seam::RoundEngine;
use gossip_core::{
    EngineBuilder, MembershipPlan, MembershipStats, Parallelism, ProposalRule, RoundStats,
};
use gossip_graph::{ShardedArenaGraph, SHARD_ALIGN};
use std::convert::Infallible;
use std::time::Instant;

pub use gossip_core::listener::PhaseNanos;

pub mod driver;
pub mod framed;
pub mod transport;
pub mod wire;

use driver::record_phases;
pub use driver::{
    peak_rss_bytes, protocol_err, run_shard, run_shard_process, RoundInbox, ShardLink,
    ShardReplica, ShardRoundDriver, Workers,
};
pub use framed::FramedConn;
pub use transport::{
    maybe_run_worker, HubLink, TransportBuilder, TransportEngine, TransportMode, TransportStats,
};
pub use wire::{Frame, MailboxAssembler, MAX_FRAME_ENTRIES};

// Shard spans are aligned to propose chunks so that a chunk never straddles
// two source shards — the mailbox ordering proof in the module docs leans
// on this equality.
const _: () = assert!(
    PROPOSAL_CHUNK == SHARD_ALIGN,
    "shard alignment must equal the engine's propose chunk"
);

/// Drives a [`ProposalRule`] over a [`ShardedArenaGraph`] in synchronous
/// rounds with shard-parallel propose, route, and apply phases: a
/// [`ShardReplica`] that owns every span, plus the round counter and the
/// phase timers.
///
/// Bit-identical to [`gossip_core::Engine`] on the same `(graph, rule,
/// seed)` for any shard count and any thread count; see the
/// [module docs](self) for the argument.
#[derive(Debug)]
pub struct ShardedEngine<R> {
    replica: ShardReplica<R>,
    round: u64,
    phases: PhaseNanos,
}

impl<R: ProposalRule<ShardedArenaGraph>> ShardedEngine<R> {
    /// Creates an engine over `graph` with the given rule and experiment
    /// seed. The shard count is the graph's ([`ShardedArenaGraph::shard_count`]).
    pub fn new(graph: ShardedArenaGraph, rule: R, seed: u64) -> Self {
        let spans = 0..graph.shard_count();
        ShardedEngine {
            replica: ShardReplica::new(graph, rule, seed, Parallelism::default(), None, spans),
            round: 0,
            phases: PhaseNanos::default(),
        }
    }

    /// Sets the parallelism policy (builder style). The policy gates all
    /// three phases at once; results are identical either way.
    pub fn with_parallelism(mut self, p: Parallelism) -> Self {
        self.replica.parallel = p.engages(self.replica.graph().n());
        self
    }

    /// Installs a membership plan (builder style): join/leave events apply
    /// at the top of each step, before the propose phase, keyed by the
    /// same pre-increment round counter the sequential engine uses — so
    /// sharded and sequential runs under one plan stay bit-identical.
    pub fn with_membership(mut self, plan: MembershipPlan) -> Self {
        self.replica.membership = plan;
        self
    }

    /// Cumulative stats of membership events applied so far (zero if no
    /// plan is installed).
    pub fn membership_stats(&self) -> MembershipStats {
        self.replica.membership.stats()
    }

    /// The current graph `G_t`.
    #[inline]
    pub fn graph(&self) -> &ShardedArenaGraph {
        self.replica.graph()
    }

    /// Consumes the engine, returning the final graph.
    pub fn into_graph(self) -> ShardedArenaGraph {
        self.replica.into_graph()
    }

    /// Rounds executed so far (`t`).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.replica.shards()
    }

    /// Cumulative wall time per phase since construction.
    pub fn phases(&self) -> PhaseNanos {
        self.phases
    }

    /// Executes one synchronous round; returns what happened.
    pub fn step(&mut self) -> RoundStats {
        self.step_inner(None)
    }

    /// One round, with its [`PhaseEvent`](gossip_core::listener::PhaseEvent)s
    /// delivered to `listener` once the round is applied (the cumulative
    /// [`ShardedEngine::phases`] timers absorb the same events).
    /// [`RoundEngine::step_listened`] routes here.
    fn step_inner(
        &mut self,
        listener: Option<&mut dyn RoundListener<ShardedArenaGraph>>,
    ) -> RoundStats {
        // Membership first, before anything observes the graph this round
        // — the same point, keyed by the same pre-increment counter, as
        // the sequential engine.
        let t = Instant::now();
        let mem_delta = self.replica.apply_membership(self.round);
        let mem_nanos = t.elapsed().as_nanos() as u64;

        let proposed = self.replica.propose_and_route(self.round);
        let t = Instant::now();
        // `apply_mail` errs only on a received half-edge, and `&[]` has none.
        #[expect(clippy::expect_used, reason = "`&[]` carries no half-edge to reject")]
        self.replica
            .apply_mail(&[])
            .expect("a replica that owns every span receives no mail");
        let apply_nanos = t.elapsed().as_nanos() as u64;
        self.round += 1;

        let times = [
            (RoundPhase::Membership, mem_nanos),
            (RoundPhase::Propose, proposed.propose_ns),
            (RoundPhase::Route, proposed.route_ns),
            (RoundPhase::Apply, apply_nanos),
        ];
        let skip = usize::from(mem_delta == MembershipStats::default());
        record_phases(&mut self.phases, listener, self.round, &times[skip..]);
        RoundStats {
            proposed: proposed.proposed,
            added: self.replica.added().iter().sum(),
        }
    }
}

impl<R: ProposalRule<ShardedArenaGraph>> RoundEngine for ShardedEngine<R> {
    type Graph = ShardedArenaGraph;
    type Error = Infallible;
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
    ) -> Result<RoundStats, Infallible> {
        Ok(self.step_inner(Some(listener)))
    }
}

/// Builds the sharded variant from a [`gossip_core::EngineBuilder`] —
/// the downstream extension of the core construction path (core cannot
/// name `ShardedEngine`). The shard count is carried by the graph itself
/// ([`ShardedArenaGraph::shard_count`]), so no extra plan parameter is
/// needed here.
///
/// ```
/// use gossip_core::{run_engine_until, ComponentwiseComplete, EngineBuilder, Pull};
/// use gossip_graph::{generators, ShardedArenaGraph};
/// use gossip_shard::BuildSharded;
///
/// let und = generators::star(64);
/// let mut check = ComponentwiseComplete::for_graph(&und);
/// let mut engine =
///     EngineBuilder::new(ShardedArenaGraph::from_arena(&und, 8), Pull, 7).build_sharded();
/// let Ok(out) = run_engine_until(&mut engine, &mut check, 1_000_000);
/// assert!(out.converged);
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
    use gossip_core::{run_engine_until, ComponentwiseComplete, Engine, Never, Pull, Push};
    use gossip_graph::{generators, NodeId};

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
        let Ok(out) = run_engine_until(&mut e, &mut check, 1_000_000);
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
    fn a_held_clone_stays_frozen_and_shares_exactly_the_unmailed_segments() {
        // Rounds under a held clone, on both fan-outs. Nodes 2048.. are
        // isolated, so shards 2 and 3 get no half-edge and must stay
        // shared with the clone; shards 0 and 1 must not (the round's
        // merge rebuilt them). The clone never moves, and the rounds equal
        // those of a twin that never had a clone taken.
        let und = generators::tree_plus_random_edges(2048, 4096, &mut stream_rng(5, 0, 0));
        let g = ShardedArenaGraph::from_edges(4096, 4, und.edges().map(|e| (e.a.0, e.b.0)));
        for p in [Parallelism::Sequential, Parallelism::Parallel] {
            let mut e = ShardedEngine::new(g.clone(), Pull, 9).with_parallelism(p);
            let mut twin = ShardedEngine::new(g.clone(), Pull, 9).with_parallelism(p);
            for round in 0..6 {
                let held = e.graph().clone();
                let rows: Vec<Vec<NodeId>> =
                    held.nodes().map(|u| held.neighbors(u).to_vec()).collect();
                let m = held.m();
                assert_eq!(e.step(), twin.step(), "{p:?} round {round}");
                let mailed: Vec<bool> = (0..4)
                    .map(|t| e.replica.mail().iter().any(|row| !row[t].is_empty()))
                    .collect();
                assert_eq!(mailed, [true, true, false, false], "{p:?} round {round}");
                for (t, &mailed) in mailed.iter().enumerate() {
                    assert_eq!(
                        held.shares_segment(e.graph(), t),
                        !mailed,
                        "{p:?} round {round} segment {t}"
                    );
                }
                assert_eq!(held.m(), m, "{p:?} round {round}");
                for u in held.nodes() {
                    assert_eq!(held.neighbors(u), &rows[u.index()][..], "{p:?} row {u:?}");
                }
                e.graph().validate().unwrap();
            }
            assert!(e.graph().m() > g.m(), "{p:?}: the rounds added nothing");
            for u in e.graph().nodes() {
                assert_eq!(e.graph().neighbors(u), twin.graph().neighbors(u));
            }
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
    fn phase_timers_accumulate() {
        let g = sharded(1200, 2400, 2, 2);
        let mut e = ShardedEngine::new(g, Push, 3);
        for _ in 0..3 {
            e.step();
        }
        let p = e.phases();
        assert!(p.total() > 0);
        assert!(p.propose > 0 && p.apply > 0);
    }

    #[test]
    fn phase_events_mirror_cumulative_timers() {
        use gossip_core::listener::{PhaseEvent, PhaseNanos};
        use gossip_core::seam::run_engine_listened;
        struct Absorb(PhaseNanos);
        impl RoundListener<ShardedArenaGraph> for Absorb {
            fn on_phase(&mut self, ev: &PhaseEvent) {
                self.0.absorb(ev);
            }
        }
        let g = sharded(1500, 3000, 4, 3);
        let mut e = ShardedEngine::new(g, Pull, 8);
        let mut acc = Absorb(PhaseNanos::default());
        let Ok(_) = run_engine_listened(&mut e, &mut acc, 5);
        // The listener saw exactly what the engine's own timers absorbed.
        assert_eq!(acc.0, e.phases());
        assert!(acc.0.propose > 0 && acc.0.apply > 0);
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
        let Ok(_) = run_engine_until(&mut resumed, &mut Never, 3);
        let Ok(second) = run_engine_until(&mut resumed, &mut Never, 4);
        assert_eq!(second.rounds, 7);
        let mut fresh = ShardedEngine::new(g, Pull, 5);
        let Ok(all) = run_engine_until(&mut fresh, &mut Never, 7);
        assert_eq!(all.final_edges, second.final_edges);
    }
}
