//! E16 — sharded round engine: throughput and memory vs. shard count.
//!
//! After PR 4 the propose phase parallelizes but the apply/merge phase is
//! one sequential sort + dedup over the whole round — the wall-clock
//! ceiling at `n ≥ 2^17`. The sharded engine (`gossip-shard`) partitions
//! the node space into `S` owner-local arena segments and applies each
//! shard's mailbox in parallel. This experiment drives the two-hop walk
//! (the paper's pull process) through `ShardedEngine` at
//! `n ∈ {2^17, 2^20, 2^22}` and records, per `(n, S)`:
//!
//! * **trajectory invariance** — the final edge count and a row checksum
//!   must be identical for every `S` (the determinism contract, measured
//!   rather than assumed; the claims table gates on it),
//! * **cross-shard edge fraction** — how many edges span two owners
//!   (deterministic; ≈ `1 - 1/S` on uniform workloads, the mailbox traffic
//!   the routing phase pays),
//! * **memory** — deterministic length-based bytes of the sharded store,
//! * **wall-clock** — rounds/sec, per-phase (propose/route/apply)
//!   nanoseconds, apply-phase speedup vs. `S = 1`, and process peak RSS.
//!   Wall-clock rows go to this experiment's tables and the report's
//!   machine-dependent appendix, never into the reproducible sections.
//!
//! The `S = 1` engine *is* the unsharded apply (one global merge), so
//! `apply_ns(S=1) / apply_ns(S)` isolates exactly what sharding buys the
//! apply phase — parallelism across segments plus per-segment locality
//! (each shard's rows live in one contiguous slab, and its merge walks
//! them in ascending order instead of proposal order).

use crate::harness::{Args, Report};
use gossip_analysis::{fmt_f64, Table};
use gossip_core::engine::{propose_round, PROPOSAL_CHUNK};
use gossip_core::{EngineBuilder, GossipGraph, ProposalRule, Pull, Push, RoundEngine, RoundStats};
use gossip_graph::{NodeId, ShardedArenaGraph};
use gossip_serve::GraphQuery;
use gossip_shard::{BuildSharded, ShardedEngine};
use std::time::Instant;

/// Connected sparse start graph built directly in the sharded layout: a
/// random parent tree plus `extra` uniform random edges — the same stream
/// and workload shape as E15's `sparse_arena`, so edge sets match
/// across experiments at the same `(n, seed)`.
pub(crate) fn sparse_sharded(n: usize, extra: u64, seed: u64, shards: usize) -> ShardedArenaGraph {
    use rand::Rng;
    let mut rng = gossip_core::rng::stream_rng(seed, 0xA1, n as u64);
    let mut g = ShardedArenaGraph::new(n, shards);
    for i in 1..n as u32 {
        g.add_edge(NodeId(i), NodeId(rng.random_range(0..i)));
    }
    let target = n as u64 - 1 + extra;
    while g.m() < target {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        g.add_edge(NodeId(a), NodeId(b));
    }
    g
}

/// Deterministic FNV-1a checksum ([`gossip_analysis::Fnv1a`]) over every
/// row (row boundaries included) — two graphs with equal checksums and
/// equal `m` are (with overwhelming probability) identical, which is how
/// trajectory invariance across `S` is measured without holding two
/// million-node graphs at once.
pub(crate) fn row_checksum<G: GraphQuery>(g: &G) -> u64 {
    let mut h = gossip_analysis::Fnv1a::new();
    for u in (0..g.node_count()).map(NodeId::new) {
        for &v in g.neighbors(u) {
            h.write_u64((u.0 as u64) << 32 | v.0 as u64);
        }
        h.write(&[0xFF]); // row boundary
    }
    h.finish()
}

/// The in-process oracle E19 and E20 compare against: the workload both
/// run — sparse `2n`-edge graph, Pull, `horizon` rounds — on
/// [`ShardedEngine`], reduced to what invariance compares: per-round
/// stats, final `m`, row checksum. The graph itself is dropped here,
/// before any worker spawns.
pub(crate) fn oracle(
    n: usize,
    shards: usize,
    horizon: u64,
    seed: u64,
) -> (Vec<RoundStats>, u64, u64) {
    let g = sparse_sharded(n, 2 * n as u64, seed, shards);
    let run = fixed_horizon(&mut ShardedEngine::new(g, Pull, seed ^ 0x5A4D), horizon);
    (run.stats, run.final_m, run.checksum)
}

/// What [`fixed_horizon`] measured.
pub(crate) struct FixedHorizon {
    pub stats: Vec<RoundStats>,
    pub final_m: u64,
    pub checksum: u64,
    pub wall_ns_per_round: f64,
    /// When round 0 finished (E20 times its bootstrap up to here).
    pub first_round_end: Instant,
}

impl FixedHorizon {
    /// Whether the run replayed `oracle`'s trajectory bit-for-bit.
    pub fn matches(&self, oracle: &(Vec<RoundStats>, u64, u64)) -> bool {
        (&self.stats, self.final_m, self.checksum) == (&oracle.0, oracle.1, oracle.2)
    }
}

/// Steps any engine — in-process or cross-process, over either carrier —
/// `horizon` rounds and reduces the run to the oracle's terms plus wall
/// time per round.
pub(crate) fn fixed_horizon<E: RoundEngine>(e: &mut E, horizon: u64) -> FixedHorizon
where
    E::Graph: GraphQuery,
{
    let t = Instant::now();
    let mut stats = vec![e.step_quantum()];
    let first_round_end = Instant::now();
    stats.extend((1..horizon).map(|_| e.step_quantum()));
    FixedHorizon {
        stats,
        final_m: e.graph().edge_count(),
        checksum: row_checksum(e.graph()),
        wall_ns_per_round: t.elapsed().as_nanos() as f64 / horizon as f64,
        first_round_end,
    }
}

/// Fraction of edges whose endpoints live in different shards — the
/// round's cross-shard mailbox traffic, as a graph property.
fn cross_shard_fraction(g: &ShardedArenaGraph) -> f64 {
    if g.m() == 0 {
        return 0.0;
    }
    let plan = g.plan();
    let crossing = g
        .edges()
        .filter(|e| plan.owner(e.a) != plan.owner(e.b))
        .count();
    crossing as f64 / g.m() as f64
}

/// Process peak RSS (`VmHWM`). Monotone and process-wide: inside
/// `run_all` earlier experiments raise the floor, so the standalone
/// `run_all --only E16` run is the clean source.
pub(crate) use gossip_shard::peak_rss_bytes;

pub(crate) fn fmt_mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

struct RunResult {
    stats: Vec<RoundStats>,
    final_m: u64,
    checksum: u64,
    cross_fraction: f64,
    mem_bytes: usize,
    /// (propose, route, apply) ns per measured round.
    phase_ns: (f64, f64, f64),
    wall_ns_per_round: f64,
}

/// One fixed-horizon pull run at `(n, shards)`: one warm-up round, then
/// `horizon` timed rounds. Phase timing and per-round stats both ride the
/// unified listener seam ([`gossip_core::RoundListener`]) — a
/// [`PhaseAccumulator`] absorbs the engine's `PhaseEvent`s and a small
/// stats collector captures each `RoundEvent`, replacing the engine's
/// bespoke cumulative-timer accessors this experiment used to poke.
fn drive<R: ProposalRule<ShardedArenaGraph>>(
    mut e: ShardedEngine<R>,
    horizon: u64,
) -> (ShardedArenaGraph, Vec<RoundStats>, (f64, f64, f64), f64) {
    use gossip_core::listener::{PhaseAccumulator, RoundControl, RoundEvent, RoundListener};
    use gossip_core::run_engine_listened;

    struct CollectStats<'a>(&'a mut Vec<RoundStats>);
    impl RoundListener<ShardedArenaGraph> for CollectStats<'_> {
        fn on_round(&mut self, ev: &RoundEvent<'_, ShardedArenaGraph>) -> RoundControl {
            self.0.push(ev.stats);
            RoundControl::Continue
        }
    }

    let mut stats = Vec::new();
    stats.push(e.step()); // warm-up: buffers sized, pool spun up
    let mut phases = PhaseAccumulator::new();
    let t = Instant::now();
    run_engine_listened(
        &mut e,
        &mut gossip_core::Chain(CollectStats(&mut stats), &mut phases),
        horizon,
    );
    let wall = t.elapsed().as_nanos() as f64 / horizon as f64;
    let p = phases.totals();
    let per = |x: u64| x as f64 / horizon as f64;
    (
        e.into_graph(),
        stats,
        (per(p.propose), per(p.route), per(p.apply)),
        wall,
    )
}

/// The PR 4 baseline, phase-timed: the unsharded arena engine's round is
/// `propose_round` (shared code) + `ArenaGraph::apply_proposals` (one
/// global sort + dedup + proposal-order insert). Reconstructed from the
/// same public pieces `Engine::step` uses, with the same seed and round
/// numbering as the sharded runs, so the workload — and the final graph —
/// is identical. Returns `(propose_ns, apply_ns, wall_ns)` per round and
/// the final edge count.
fn arena_baseline(n: usize, horizon: u64, seed: u64) -> (f64, f64, f64, u64) {
    let mut g = crate::experiments::scale::sparse_arena(n, 2 * n as u64, seed);
    let rule_seed = seed ^ 0x5A4D;
    let mut bufs = vec![Vec::new(); n.div_ceil(PROPOSAL_CHUNK)];
    let run_round = |round: u64,
                     g: &mut gossip_graph::ArenaGraph,
                     bufs: &mut Vec<Vec<gossip_core::TaggedProposal>>|
     -> (u64, u64) {
        let t = Instant::now();
        // Parallel propose, like the real Engine would at these sizes
        // (every E16 size is far above the Auto threshold) — otherwise the
        // baseline's propose/wall columns overstate PR 4's cost on
        // multi-core hosts.
        propose_round(&*g, &Pull, rule_seed, round, bufs, true);
        let propose = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        g.apply_proposals(bufs, &mut |_, _, _| {});
        (propose, t.elapsed().as_nanos() as u64)
    };
    run_round(0, &mut g, &mut bufs); // warm-up, mirroring the sharded runs
    let (mut propose, mut apply) = (0u64, 0u64);
    let t = Instant::now();
    for round in 1..=horizon {
        let (p, a) = run_round(round, &mut g, &mut bufs);
        propose += p;
        apply += a;
    }
    let wall = t.elapsed().as_nanos() as f64 / horizon as f64;
    (
        propose as f64 / horizon as f64,
        apply as f64 / horizon as f64,
        wall,
        g.m(),
    )
}

fn one_run(n: usize, shards: usize, horizon: u64, seed: u64, pull: bool) -> RunResult {
    let g = sparse_sharded(n, 2 * n as u64, seed, shards);
    let (final_g, stats, phase_ns, wall_ns_per_round) = if pull {
        drive(
            EngineBuilder::new(g, Pull, seed ^ 0x5A4D).build_sharded(),
            horizon,
        )
    } else {
        drive(
            EngineBuilder::new(g, Push, seed ^ 0x5A4D).build_sharded(),
            horizon,
        )
    };
    RunResult {
        stats,
        final_m: final_g.m(),
        checksum: row_checksum(&final_g),
        cross_fraction: cross_shard_fraction(&final_g),
        mem_bytes: final_g.memory_bytes(),
        phase_ns,
        wall_ns_per_round,
    }
}

/// E16: sharded engine scaling sweep.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E16-shard-scaling");
    // Same sizes quick and full (the 2^22 row IS the acceptance run);
    // quick trims horizons and the shard grid instead.
    let sizes: [usize; 3] = [1 << 17, 1 << 20, 1 << 22];
    let horizon_of = |n: usize| -> u64 {
        match (n, args.quick) {
            (n, true) if n >= 1 << 22 => 3,
            (_, true) => 4,
            (n, false) if n >= 1 << 22 => 6,
            (n, false) if n >= 1 << 20 => 8,
            _ => 12,
        }
    };
    let shard_grid = |n: usize| -> Vec<usize> {
        if args.quick && n != 1 << 20 {
            vec![1, 8] // the speedup point keeps its middle rung
        } else {
            vec![1, 2, 8]
        }
    };

    let mut throughput = Table::new([
        "process",
        "n",
        "S",
        "rounds",
        "edges added",
        "ns/node/round",
        "propose ms/round",
        "route ms/round",
        "apply ms/round",
        "peak RSS MiB",
    ]);
    let mut speedup_t = Table::new([
        "n",
        "S",
        "apply ms/round",
        "vs arena engine (PR4)",
        "vs S=1",
    ]);

    for &n in &sizes {
        let horizon = horizon_of(n);

        // The PR 4 baseline: unsharded arena engine, phase-timed. Its
        // apply phase is the sequential sort this experiment exists to
        // break up.
        let (pr4_propose_ns, pr4_apply_ns, pr4_wall_ns, pr4_m) =
            arena_baseline(n, horizon, args.seed);
        throughput.push_row([
            "pull (arena PR4)".into(),
            n.to_string(),
            "-".into(),
            horizon.to_string(),
            "-".into(),
            fmt_f64(pr4_wall_ns / n as f64),
            format!("{:.2}", pr4_propose_ns / 1e6),
            "-".into(),
            format!("{:.2}", pr4_apply_ns / 1e6),
            peak_rss_bytes().map_or("-".into(), fmt_mib),
        ]);

        let mut base: Option<(u64, u64, Vec<RoundStats>)> = None;
        let mut apply_base_ns = 0.0f64;
        for s in shard_grid(n) {
            let r = one_run(n, s, horizon, args.seed, true);
            let added: u64 = r.stats.iter().map(|st| st.added).sum();

            // Trajectory invariance vs the S=1 run of the same (n, seed):
            // identical per-round stats, final m, and row checksum.
            let invariant = match &base {
                None => {
                    base = Some((r.final_m, r.checksum, r.stats.clone()));
                    apply_base_ns = r.phase_ns.2;
                    true
                }
                Some((m0, c0, s0)) => *m0 == r.final_m && *c0 == r.checksum && *s0 == r.stats,
            };
            assert!(
                invariant,
                "sharded trajectory diverged from S=1 at n={n}, S={s}"
            );

            // Reproducible rows.
            report.measure_scalar(
                "trajectory_invariant",
                "pull",
                format!("shards-{s}"),
                n as u64,
                invariant as u64 as f64,
            );
            report.measure_scalar(
                "edges_added",
                "pull",
                format!("shards-{s}"),
                n as u64,
                added as f64,
            );
            report.measure_scalar(
                "cross_shard_edge_fraction",
                "pull",
                format!("shards-{s}"),
                n as u64,
                r.cross_fraction,
            );
            if s == 8 {
                report.measure_scalar(
                    "mem_bytes",
                    "sharded-arena",
                    format!("shards-{s}"),
                    n as u64,
                    r.mem_bytes as f64,
                );
            }

            // Machine-dependent rows (report appendix + tables here).
            let ns_node_round = r.wall_ns_per_round / n as f64;
            report.measure_wallclock_scalar(
                "rounds_per_sec",
                "pull",
                format!("shards-{s}"),
                n as u64,
                1e9 / r.wall_ns_per_round,
            );
            report.measure_wallclock_scalar(
                "apply_ms_per_round",
                "pull",
                format!("shards-{s}"),
                n as u64,
                r.phase_ns.2 / 1e6,
            );
            // The same engine applied the same proposal stream: the PR 4
            // baseline must land on the same graph.
            assert_eq!(
                pr4_m, r.final_m,
                "arena baseline diverged from sharded runs at n={n}"
            );
            let apply_speedup = if s == 1 {
                1.0
            } else {
                apply_base_ns / r.phase_ns.2
            };
            let vs_pr4 = pr4_apply_ns / r.phase_ns.2;
            report.measure_wallclock_scalar(
                "apply_speedup_vs_arena",
                "pull",
                format!("shards-{s}"),
                n as u64,
                vs_pr4,
            );
            if s != 1 {
                report.measure_wallclock_scalar(
                    "apply_speedup_vs_s1",
                    "pull",
                    format!("shards-{s}"),
                    n as u64,
                    apply_speedup,
                );
            }

            throughput.push_row([
                "pull".into(),
                n.to_string(),
                s.to_string(),
                horizon.to_string(),
                added.to_string(),
                fmt_f64(ns_node_round),
                format!("{:.2}", r.phase_ns.0 / 1e6),
                format!("{:.2}", r.phase_ns.1 / 1e6),
                format!("{:.2}", r.phase_ns.2 / 1e6),
                peak_rss_bytes().map_or("-".into(), fmt_mib),
            ]);
            speedup_t.push_row([
                n.to_string(),
                s.to_string(),
                format!("{:.2}", r.phase_ns.2 / 1e6),
                format!("{:.2}x", vs_pr4),
                format!("{:.2}x", apply_speedup),
            ]);
        }

        // Breadth: the push process at the smallest size (full runs only —
        // the pull grid is the acceptance workload).
        if !args.quick && n == 1 << 17 {
            let r = one_run(n, 8, horizon, args.seed, false);
            let added: u64 = r.stats.iter().map(|st| st.added).sum();
            report.measure_scalar("edges_added", "push", "shards-8", n as u64, added as f64);
            throughput.push_row([
                "push".into(),
                n.to_string(),
                "8".into(),
                horizon.to_string(),
                added.to_string(),
                fmt_f64(r.wall_ns_per_round / n as f64),
                format!("{:.2}", r.phase_ns.0 / 1e6),
                format!("{:.2}", r.phase_ns.1 / 1e6),
                format!("{:.2}", r.phase_ns.2 / 1e6),
                peak_rss_bytes().map_or("-".into(), fmt_mib),
            ]);
        }
    }

    report.note(format!(
        "two-hop walk completes fixed-horizon runs up to n = 2^22 on the sharded \
         engine; trajectories (per-round stats, final edge set) are bit-identical \
         across S ∈ {{1, 2, 8}} at every size — the determinism contract, measured. \
         Horizons: {}.",
        if args.quick {
            "quick (3-4 rounds)"
        } else {
            "full (6-12 rounds)"
        }
    ));
    report.note(
        "wall-clock columns (phase times, speedups, RSS) are machine-dependent and \
         stay out of the reproducible sections; RESULTS.md carries them in its \
         appendix only. Peak RSS is process-wide and monotone — inside run_all the \
         floor is set by earlier experiments, so the standalone `run_all --only E16` run is \
         the clean memory reading.",
    );
    report.table("fixed-horizon throughput vs shard count (pull)", throughput);
    report.table("apply-phase speedup vs S=1 (pull)", speedup_t);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_sharded_matches_scale_generator() {
        // Same stream as experiments::scale::sparse_arena -> same edge set.
        let n = 2048;
        let a = sparse_sharded(n, 2 * n as u64, 7, 4);
        let b = crate::experiments::scale::sparse_arena(n, 2 * n as u64, 7);
        assert_eq!(a.m(), b.m());
        for u in b.nodes() {
            assert_eq!(a.neighbors(u), b.neighbors(u));
        }
        a.validate().unwrap();
    }

    #[test]
    fn checksum_distinguishes_graphs_and_is_stable() {
        let g1 = sparse_sharded(1500, 1000, 1, 2);
        let g2 = sparse_sharded(1500, 1000, 1, 8); // same edges, different S
        let g3 = sparse_sharded(1500, 1000, 2, 2); // different edges
        assert_eq!(row_checksum(&g1), row_checksum(&g2));
        assert_ne!(row_checksum(&g1), row_checksum(&g3));
    }

    #[test]
    fn cross_shard_fraction_bounds() {
        let g = sparse_sharded(4096, 8192, 3, 4);
        let f = cross_shard_fraction(&g);
        // Uniform edges across 4 equal shards cross ~3/4 of the time.
        assert!((0.5..1.0).contains(&f), "fraction {f}");
        let g1 = sparse_sharded(4096, 8192, 3, 1);
        assert_eq!(cross_shard_fraction(&g1), 0.0);
    }

    #[test]
    fn one_run_is_invariant_in_shard_count() {
        let a = one_run(3000, 1, 4, 5, true);
        let b = one_run(3000, 8, 4, 5, true);
        assert_eq!(a.final_m, b.final_m);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.stats, b.stats);
    }
}
