//! The synchronous-round execution engine.
//!
//! One round is two phases, connected by a **flat proposal pipeline**:
//!
//! 1. **Propose** — every node evaluates the rule against the *immutable*
//!    round-start graph `G_t`, drawing from its own counter-based RNG
//!    stream. Nodes are grouped into fixed-size chunks
//!    (`PROPOSAL_CHUNK` = 1024); each chunk appends its proposals to its own
//!    flat reusable `Vec<TaggedProposal>` buffer through one
//!    [`ProposalRule::propose_range`] call, which the two-hop walk
//!    overrides to advance 64 nodes' walks a stage at a time (their cache
//!    misses overlap; the draws, per node, are the same). The phase is
//!    embarrassingly parallel and runs chunks on the rayon shim's
//!    persistent worker pool when the graph is large enough to amortize
//!    job dispatch (see [`Parallelism::default`] for the cost model).
//!    Chunking is independent of the thread count, and the buffers
//!    concatenate in chunk order, so the proposal stream is always exactly
//!    the node-order stream regardless of scheduling.
//! 2. **Apply** — the buffers are handed to
//!    [`GossipGraph::apply_proposals`] as one batch. The arena-backed
//!    graph counting-sorts the round's half-edges by destination row and
//!    merges them row by row, in row order, into its sorted rows; the
//!    directed graph replays them one at a time in node order. Rows are
//!    sorted on every backend, hence canonical, so sequential and parallel
//!    execution are **bit-identical** under any schedule by construction.
//!
//! Compared to the previous design (an `n`-slot `Vec<ProposalSet>` indexed
//! by node), the flat pipeline stores only proposals that exist (most
//! rules propose at most one edge, and isolated or degenerate draws none),
//! keeps per-worker writes dense instead of striding a 24-byte slot array,
//! and gives batch-capable graphs the whole round at once.

use crate::convergence::ConvergenceCheck;
use crate::membership::{MembershipPlan, MembershipStats};
use crate::process::{GossipGraph, ProposalRule, RoundStats, TaggedProposal};
use rayon::prelude::*;

/// Nodes per propose-phase chunk. Fixed (never derived from the thread
/// count) so the chunk decomposition — and with it every buffer boundary —
/// is identical under any parallelism; the pool's dynamic chunk-claiming
/// balances load across these units. 1024 nodes ≈ tens of µs of propose
/// work per chunk: coarse enough to amortize dispatch, fine enough to
/// rebalance a skewed workload.
///
/// Public because the sharded engine (`gossip-shard`) reuses the exact
/// same chunk decomposition (via [`propose_round`]) and aligns its shard
/// boundaries to it — `gossip_graph::SHARD_ALIGN` must stay equal to this.
pub const PROPOSAL_CHUNK: usize = 1024;

/// The propose phase, shared by every round-based engine: each node
/// evaluates `rule` against the immutable round-start `graph`, drawing from
/// its `(seed, round, node)` counter-based RNG stream; chunk `c`'s
/// proposals land in `bufs[c]` (cleared first), so concatenating the
/// buffers in index order always yields the node-order proposal stream,
/// under any scheduling. `bufs` must hold `node_count.div_ceil(PROPOSAL_CHUNK)`
/// buffers.
pub fn propose_round<G, R>(
    graph: &G,
    rule: &R,
    seed: u64,
    round: u64,
    bufs: &mut [Vec<TaggedProposal>],
    parallel: bool,
) where
    G: GossipGraph,
    R: ProposalRule<G>,
{
    let chunks = bufs.len();
    propose_chunk_range(graph, rule, seed, round, bufs, 0..chunks, parallel);
}

/// [`propose_round`] restricted to the chunks in `range` (the other
/// buffers are left untouched). This is the per-worker propose phase of
/// the cross-process transport: a shard worker evaluates only its own
/// chunk span, and because every chunk's RNG streams are keyed by
/// `(seed, round, node)` alone, the restricted phase produces exactly the
/// buffers the full phase would — no cross-chunk state exists to miss.
pub fn propose_chunk_range<G, R>(
    graph: &G,
    rule: &R,
    seed: u64,
    round: u64,
    bufs: &mut [Vec<TaggedProposal>],
    range: std::ops::Range<usize>,
    parallel: bool,
) where
    G: GossipGraph,
    R: ProposalRule<G>,
{
    let n = graph.node_count();
    debug_assert_eq!(bufs.len(), n.div_ceil(PROPOSAL_CHUNK));
    debug_assert!(range.end <= bufs.len());
    let lo = range.start;
    let fill_chunk = |c: usize, buf: &mut Vec<TaggedProposal>| {
        buf.clear();
        let lo = c * PROPOSAL_CHUNK;
        let hi = (lo + PROPOSAL_CHUNK).min(n);
        rule.propose_range(graph, seed, round, lo..hi, buf);
    };
    let bufs = &mut bufs[range];
    if parallel {
        bufs.par_iter_mut()
            .enumerate()
            .for_each(|(c, buf)| fill_chunk(lo + c, buf));
    } else {
        for (c, buf) in bufs.iter_mut().enumerate() {
            fill_chunk(lo + c, buf);
        }
    }
}

/// When to parallelize the propose phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// Always sequential.
    Sequential,
    /// Rayon-parallel propose phase when `n >= threshold`.
    Auto {
        /// Minimum node count at which rayon is engaged.
        threshold: usize,
    },
    /// Always parallel.
    Parallel,
}

impl Parallelism {
    /// Whether this policy engages the rayon pool on an `n`-node graph.
    #[inline]
    pub fn engages(self, n: usize) -> bool {
        match self {
            Parallelism::Sequential => false,
            Parallelism::Parallel => true,
            Parallelism::Auto { threshold } => n >= threshold,
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        // Cost model, measured with the staged two-hop propose and the
        // row-ordered arena merge (sequential rounds, 8 per iteration,
        // 4n-edge sweep workload, a 2-core box whose
        // bitmap-row backend at n = 1024 read in two modes): a full sequential
        // round costs 63–88 ns/node (push) and 68–98 (pull) at n = 1024,
        // 124 and 82 at n = 4096, and on the arena 151 and 145 at
        // n = 4096. The propose phase alone is 25–60 ns/node of that, so
        // at 2048 nodes it is ≥ 50 µs of sequential work, while the rayon
        // shim's persistent pool prices a parallel round at one job push
        // plus condvar wakeups (single-digit µs, zero thread spawns).
        // Break-even sits in the low thousands of nodes, which keeps 2048
        // conservative. One chunk (PROPOSAL_CHUNK = 1024 nodes) below the
        // threshold would parallelize nothing anyway, so the threshold
        // also keeps Auto from paying dispatch for a single-chunk round.
        Parallelism::Auto { threshold: 2_048 }
    }
}

/// Outcome of [`Engine::run_until`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Rounds executed (== the convergence round when `converged`).
    pub rounds: u64,
    /// Whether the convergence check fired within the budget.
    pub converged: bool,
    /// Edge/arc count at the end.
    pub final_edges: u64,
}

/// Drives a [`ProposalRule`] over a [`GossipGraph`] in synchronous rounds.
#[derive(Clone, Debug)]
pub struct Engine<G, R> {
    graph: G,
    rule: R,
    seed: u64,
    round: u64,
    parallelism: Parallelism,
    /// Flat per-chunk proposal buffers, reused across rounds (steady-state
    /// rounds allocate nothing). Buffer `c` holds the proposals of nodes
    /// `c * PROPOSAL_CHUNK ..`, so concatenation in index order is the
    /// node-order proposal stream.
    chunk_bufs: Vec<Vec<TaggedProposal>>,
    /// Optional join/leave schedule, applied at the top of every step
    /// (before the propose phase) with the pre-increment round counter —
    /// the [`crate::membership`] lifecycle seam.
    membership: Option<MembershipPlan>,
}

impl<G: GossipGraph, R: ProposalRule<G>> Engine<G, R> {
    /// Creates an engine over `graph` with the given rule and experiment seed.
    pub fn new(graph: G, rule: R, seed: u64) -> Self {
        let chunks = graph.node_count().div_ceil(PROPOSAL_CHUNK);
        Engine {
            graph,
            rule,
            seed,
            round: 0,
            parallelism: Parallelism::default(),
            chunk_bufs: vec![Vec::new(); chunks],
            membership: None,
        }
    }

    /// Sets the parallelism policy (builder style).
    pub fn with_parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Installs a membership plan (builder style): its join/leave events
    /// are applied to the graph at the top of each step, before the
    /// propose phase, keyed by the pre-increment round counter. See
    /// [`crate::membership`] for the numbering and departure contract.
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
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// Consumes the engine, returning the final graph.
    pub fn into_graph(self) -> G {
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

    /// Executes one synchronous round; returns what happened.
    pub fn step(&mut self) -> RoundStats {
        self.step_attributed(|_, _, _, _| {})
    }

    /// One round, invoking `on_edge(round, introducer, a, b)` for every edge
    /// that is actually new. The no-op instantiation compiles down to
    /// [`Engine::step`]; the provenance API in [`crate::trace`] builds on it.
    pub(crate) fn step_attributed<F>(&mut self, mut on_edge: F) -> RoundStats
    where
        F: FnMut(u64, gossip_graph::NodeId, gossip_graph::NodeId, gossip_graph::NodeId),
    {
        // Phase 0 (membership): apply due join/leave events to the graph
        // before anything observes it this round. Both synchronous engines
        // key this on the same pre-increment counter, so runs under the
        // same plan stay bit-identical across engine variants.
        if let Some(plan) = self.membership.as_mut() {
            plan.apply_due(self.round, &mut self.graph);
        }

        // Phase 1: propose against the immutable G_t, each chunk filling
        // its own flat buffer (the shared phase in [`propose_round`]). The
        // per-node work is identical either way; only the scheduling of
        // whole chunks differs.
        let parallel = self.parallelism.engages(self.graph.node_count());
        propose_round(
            &self.graph,
            &self.rule,
            self.seed,
            self.round,
            &mut self.chunk_bufs,
            parallel,
        );

        // Phase 2: hand the whole round to the graph as one batch.
        self.round += 1;
        let round_now = self.round;
        self.graph
            .apply_proposals(&self.chunk_bufs, &mut |u, a, b| on_edge(round_now, u, a, b))
    }

    /// Runs until `check` fires or `max_rounds` is reached. (The loop
    /// itself lives in [`crate::seam`], shared with the async and sharded
    /// engines; recorders ride the same loop as
    /// [`crate::listener::RoundListener`]s via
    /// [`crate::seam::run_engine_listened`].)
    pub fn run_until<C: ConvergenceCheck<G>>(
        &mut self,
        check: &mut C,
        max_rounds: u64,
    ) -> RunOutcome {
        crate::seam::run_engine_until(self, check, max_rounds)
    }
}

impl<G: GossipGraph, R: ProposalRule<G>> crate::seam::RoundEngine for Engine<G, R> {
    type Graph = G;
    #[inline]
    fn graph(&self) -> &G {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::{ComponentwiseComplete, Never};
    use crate::rules::{Pull, Push};
    use gossip_graph::generators;

    #[test]
    fn push_completes_a_path() {
        let g = generators::path(12);
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut engine = Engine::new(g, Push, 0xBEEF);
        let out = engine.run_until(&mut check, 1_000_000);
        assert!(out.converged);
        assert!(engine.graph().is_complete());
        assert_eq!(out.final_edges, 66);
        assert_eq!(out.rounds, engine.round());
    }

    #[test]
    fn pull_completes_a_star() {
        let g = generators::star(10);
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut engine = Engine::new(g, Pull, 7);
        let out = engine.run_until(&mut check, 1_000_000);
        assert!(out.converged);
        assert!(engine.graph().is_complete());
    }

    #[test]
    fn already_complete_converges_in_zero_rounds() {
        let g = generators::complete(6);
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut engine = Engine::new(g, Push, 1);
        let out = engine.run_until(&mut check, 10);
        assert!(out.converged);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn horizon_is_respected() {
        let g = generators::path(64);
        let mut engine = Engine::new(g, Push, 3);
        let out = engine.run_until(&mut Never, 5);
        assert!(!out.converged);
        assert_eq!(out.rounds, 5);
    }

    #[test]
    fn edges_only_grow_monotonically() {
        let g = generators::cycle(20);
        let mut engine = Engine::new(g, Push, 5);
        let mut last = engine.graph().m();
        for _ in 0..200 {
            let stats = engine.step();
            let m = engine.graph().m();
            assert_eq!(m, last + stats.added);
            assert!(m >= last);
            last = m;
        }
        engine.graph().validate().unwrap();
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        for seed in [1u64, 99, 12345] {
            let g = generators::tree_plus_random_edges(
                200,
                400,
                &mut crate::rng::stream_rng(seed, 0, 0),
            );
            let mut seq =
                Engine::new(g.clone(), Push, seed).with_parallelism(Parallelism::Sequential);
            let mut par = Engine::new(g, Push, seed).with_parallelism(Parallelism::Parallel);
            for _ in 0..50 {
                let s1 = seq.step();
                let s2 = par.step();
                assert_eq!(s1, s2);
            }
            // Not just counts — identical rows.
            assert!(seq.graph().same_edges(par.graph()));
        }
    }

    #[test]
    fn same_seed_same_trajectory() {
        let g = generators::random_tree(40, &mut crate::rng::stream_rng(8, 0, 0));
        let mut e1 = Engine::new(g.clone(), Pull, 555);
        let mut e2 = Engine::new(g, Pull, 555);
        for _ in 0..100 {
            assert_eq!(e1.step(), e2.step());
        }
        assert!(e1.graph().same_edges(e2.graph()));
    }

    #[test]
    fn different_seeds_diverge() {
        let g = generators::cycle(30);
        let mut e1 = Engine::new(g.clone(), Push, 1);
        let mut e2 = Engine::new(g, Push, 2);
        let mut diverged = false;
        for _ in 0..20 {
            if e1.step() != e2.step() {
                diverged = true;
                break;
            }
        }
        assert!(diverged || !e1.graph().same_edges(e2.graph()));
    }

    #[test]
    fn directed_engine_reaches_closure() {
        use crate::convergence::ClosureReached;
        use crate::rules::DirectedPull;
        let g = generators::directed_cycle(8);
        let mut check = ClosureReached::for_graph(&g);
        let mut engine = Engine::new(g, DirectedPull, 11);
        let out = engine.run_until(&mut check, 1_000_000);
        assert!(out.converged);
        assert_eq!(out.final_edges, 8 * 7);
    }
}
