//! E16 — sharded round engine: trajectory invariance vs. shard count.
//!
//! The sharded engine (`gossip-shard`) partitions the node space into `S`
//! owner-local arena segments and applies each shard's mailbox in
//! parallel. This experiment drives the two-hop walk (the paper's pull
//! process) through `ShardedEngine` at `n ∈ {2^17, 2^20, 2^22}` and
//! records, per `(n, S)`:
//!
//! * **trajectory invariance** — per-round stats, the final edge count
//!   and a row checksum must be identical for every `S`, and identical to
//!   the plain sequential [`Engine`] on the same graph (the determinism
//!   contract, measured rather than assumed; the claims table gates on
//!   it),
//! * **cross-shard edge fraction** — how many edges span two owners
//!   (≈ `1 - 1/S` on uniform workloads, the mailbox traffic the routing
//!   phase pays),
//! * **memory** — length-based bytes of the sharded store.
//!
//! Every row is a function of the seed. Per-phase timing of the same
//! round is the benchmark ledger's `shard-sparse` workload.

use crate::experiments::scale::{fill_sparse, sparse_arena};
use crate::harness::{Args, Report};
use gossip_analysis::{fmt_f64, Table};
use gossip_core::{
    run_engine_listened, Engine, GossipGraph, ProposalRule, Pull, Push, RoundEngine, RoundRecorder,
    RoundRow,
};
use gossip_graph::{NodeId, ShardedArenaGraph};
use gossip_shard::ShardedEngine;

/// E15's sparse start graph ([`fill_sparse`]) in the sharded layout, so
/// edge sets match across experiments at the same `(n, seed)`.
pub(crate) fn sparse_sharded(n: usize, extra: u64, seed: u64, shards: usize) -> ShardedArenaGraph {
    let mut g = ShardedArenaGraph::new(n, shards);
    fill_sparse(n, extra, seed, |a, b| g.add_edge(a, b));
    g
}

/// Deterministic FNV-1a checksum ([`gossip_analysis::Fnv1a`]) over every
/// row (row boundaries included) — two graphs with equal checksums and
/// equal `m` are (with overwhelming probability) identical, which is how
/// trajectory invariance across `S` is measured without holding two
/// million-node graphs at once.
pub(crate) fn row_checksum<G: GossipGraph>(g: &G) -> u64 {
    let mut h = gossip_analysis::Fnv1a::new();
    for u in (0..g.node_count()).map(NodeId::new) {
        for &v in g.neighbor_row(u) {
            h.write_u64((u.0 as u64) << 32 | v.0 as u64);
        }
        h.write(&[0xFF]); // row boundary
    }
    h.finish()
}

/// The in-process oracle E19 and E20 compare against: the workload both
/// run — sparse `2n`-edge graph, Pull, `horizon` rounds — on
/// [`ShardedEngine`]. The graph itself is dropped here, before any worker
/// spawns.
pub(crate) fn oracle(n: usize, shards: usize, horizon: u64, seed: u64) -> FixedHorizon {
    let g = sparse_sharded(n, 2 * n as u64, seed, shards);
    fixed_horizon(&mut ShardedEngine::new(g, Pull, seed ^ 0x5A4D), horizon)
}

/// A fixed-horizon run reduced to what invariance compares: one
/// [`RoundRow`] per round (stats, `m`, and the probe, if any) and the
/// final row checksum.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct FixedHorizon {
    pub rows: Vec<RoundRow>,
    pub checksum: u64,
}

impl FixedHorizon {
    /// Edges added over the run.
    pub fn added(&self) -> u64 {
        self.rows.iter().map(|r| r.stats.added).sum()
    }

    /// Edge count after the last round.
    pub fn final_m(&self) -> u64 {
        self.rows.last().map_or(0, |r| r.m)
    }
}

/// Runs any engine — in-process or cross-process, over either carrier —
/// `horizon` rounds under `rec` and reduces the run to a [`FixedHorizon`].
pub(crate) fn recorded<E: RoundEngine>(
    e: &mut E,
    horizon: u64,
    mut rec: RoundRecorder<E::Graph>,
) -> FixedHorizon {
    run_engine_listened(e, &mut rec, horizon);
    FixedHorizon {
        rows: rec.rows(),
        checksum: row_checksum(e.graph()),
    }
}

/// [`recorded`] with no probe.
pub(crate) fn fixed_horizon<E: RoundEngine>(e: &mut E, horizon: u64) -> FixedHorizon {
    recorded(e, horizon, RoundRecorder::new())
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

struct RunResult {
    run: FixedHorizon,
    cross_fraction: f64,
    mem_bytes: usize,
}

/// One fixed-horizon run of `rule` at `(n, shards)`.
fn one_run<R: ProposalRule<ShardedArenaGraph>>(
    n: usize,
    shards: usize,
    rounds: u64,
    seed: u64,
    rule: R,
) -> RunResult {
    let g = sparse_sharded(n, 2 * n as u64, seed, shards);
    let mut e = ShardedEngine::new(g, rule, seed ^ 0x5A4D);
    let run = fixed_horizon(&mut e, rounds);
    RunResult {
        run,
        cross_fraction: cross_shard_fraction(e.graph()),
        mem_bytes: e.graph().memory_bytes(),
    }
}

/// E16: sharded engine scaling sweep.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E16-shard-scaling");
    // Same sizes quick and full (the 2^22 row IS the acceptance run);
    // quick trims rounds and the shard grid instead.
    let sizes: [usize; 3] = [1 << 17, 1 << 20, 1 << 22];
    let rounds_of = |n: usize| -> u64 {
        match (n, args.quick) {
            (n, true) if n >= 1 << 22 => 4,
            (_, true) => 5,
            (n, false) if n >= 1 << 22 => 7,
            (n, false) if n >= 1 << 20 => 9,
            _ => 13,
        }
    };
    let shard_grid = |n: usize| -> Vec<usize> {
        if args.quick && n != 1 << 20 {
            vec![1, 8] // 2^20 keeps the middle rung
        } else {
            vec![1, 2, 8]
        }
    };

    let mut table = Table::new([
        "process",
        "n",
        "S",
        "rounds",
        "edges added",
        "cross-shard edges",
    ]);

    for &n in &sizes {
        let rounds = rounds_of(n);

        // The sequential witness: the plain arena engine on the same edge
        // set, rule and seed. Every shard count must replay it exactly, so
        // it pins S-invariance and sharded == sequential at once.
        let seq = fixed_horizon(
            &mut Engine::new(
                sparse_arena(n, 2 * n as u64, args.seed),
                Pull,
                args.seed ^ 0x5A4D,
            ),
            rounds,
        );
        table.push_row([
            "pull (arena Engine)".into(),
            n.to_string(),
            "-".into(),
            rounds.to_string(),
            seq.added().to_string(),
            "-".into(),
        ]);

        for s in shard_grid(n) {
            let r = one_run(n, s, rounds, args.seed, Pull);
            let invariant = r.run == seq;
            assert!(
                invariant,
                "sharded trajectory at n={n}, S={s} diverged from the sequential \
                 engine (per-round stats, final m, row checksum)"
            );
            let added = r.run.added();

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
            table.push_row([
                "pull".into(),
                n.to_string(),
                s.to_string(),
                rounds.to_string(),
                added.to_string(),
                fmt_f64(r.cross_fraction),
            ]);
        }

        // Breadth: the push process at the smallest size (full runs only —
        // the pull grid is the acceptance workload).
        if !args.quick && n == 1 << 17 {
            let r = one_run(n, 8, rounds, args.seed, Push);
            let added = r.run.added();
            report.measure_scalar("edges_added", "push", "shards-8", n as u64, added as f64);
            table.push_row([
                "push".into(),
                n.to_string(),
                "8".into(),
                rounds.to_string(),
                added.to_string(),
                fmt_f64(r.cross_fraction),
            ]);
        }
    }

    report.note(format!(
        "two-hop walk completes fixed-horizon runs up to n = 2^22 on the sharded \
         engine; trajectories (per-round stats, final edge set) are bit-identical \
         across S ∈ {{1, 2, 8}} and to the sequential arena engine at every size — \
         the determinism contract, measured. Rounds: {}.",
        if args.quick {
            "quick (4-5)"
        } else {
            "full (7-13)"
        }
    ));
    report.table("fixed-horizon runs vs shard count", table);
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
        let a = one_run(3000, 1, 4, 5, Pull);
        let b = one_run(3000, 8, 4, 5, Pull);
        assert_eq!(a.run, b.run);
        // ... and replays the sequential arena engine, as `run` asserts.
        let seq = fixed_horizon(
            &mut Engine::new(sparse_arena(3000, 6000, 5), Pull, 5 ^ 0x5A4D),
            4,
        );
        assert_eq!(seq, a.run);
    }
}
