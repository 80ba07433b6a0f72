//! E15 — engine scaling: the arena-backed store at million-node sizes.
//!
//! The paper's upper bounds are asymptotic, but a layout with an `n`-bit
//! membership bitmap per node (`n²/8` bytes) caps experiments near
//! `n = 2^17`. This experiment drives the [`gossip_graph::ArenaGraph`]
//! backend through the flat proposal pipeline across `n ∈ {2^14 … 2^20}`
//! and records, per process:
//!
//! * **rounds / edges added** over a fixed horizon (deterministic,
//!   pooled into `RESULTS.md`),
//! * **edge-doubling time** — rounds until `m ≥ 2·m₀` — via the streaming
//!   trial runner (one engine alive at a time, `O(edges)` peak memory),
//! * **memory** — deterministic length-based bytes of the arena store,
//!   against what the bitmap layout would hold for the same edges at the
//!   comparison size (`bitmap_bytes`; the headline `≥4×` reduction gate).
//!
//! Wall-clock throughput at these sizes is the benchmark ledger's
//! (`seq-sparse`), not this experiment's.

use crate::harness::{Args, Report};
use gossip_analysis::{fmt_f64, Table};
use gossip_core::{
    stream_trials, ConvergenceCheck, Engine, Never, Parallelism, Pull, RuleId, TrialConfig,
};
use gossip_graph::{ArenaGraph, NodeId};

/// Converged once the edge count reaches `target` — the scale experiment's
/// milestone check (full completion at these sizes would need terabytes).
struct EdgesAtLeast {
    target: u64,
}

impl ConvergenceCheck<ArenaGraph> for EdgesAtLeast {
    fn is_converged(&mut self, g: &ArenaGraph) -> bool {
        g.m() >= self.target
    }
    fn describe(&self) -> String {
        format!("edge count >= {}", self.target)
    }
}

/// Feeds a connected sparse start graph's edges to `add_edge` (which
/// reports whether the edge was new): a random parent tree plus `extra`
/// uniform random edges — `generators::tree_plus_random_edges`'s workload
/// shape, drawn from the experiment's own seeded stream. Every layout
/// filled from it at the same `(n, extra, seed)` holds the same edge set.
pub(crate) fn fill_sparse(
    n: usize,
    extra: u64,
    seed: u64,
    mut add_edge: impl FnMut(NodeId, NodeId) -> bool,
) {
    use rand::Rng;
    let mut rng = gossip_core::rng::stream_rng(seed, 0xA1, n as u64);
    let mut m = 0u64;
    for i in 1..n as u32 {
        m += add_edge(NodeId(i), NodeId(rng.random_range(0..i))) as u64;
    }
    while m < n as u64 - 1 + extra {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        m += add_edge(NodeId(a), NodeId(b)) as u64;
    }
}

/// [`fill_sparse`]'s graph in the single-arena layout.
pub(crate) fn sparse_arena(n: usize, extra: u64, seed: u64) -> ArenaGraph {
    let mut g = ArenaGraph::new(n);
    fill_sparse(n, extra, seed, |a, b| g.add_edge(a, b));
    g
}

/// `size_of` of the insertion-ordered row type the bitmap layout kept per
/// node (a `Vec<NodeId>` plus a bitset: a `Vec<u64>` and its capacity) on
/// 64-bit targets — fixed, since that type is no longer built.
const BITMAP_ROW_HEADER: usize = 56;

/// Bytes the bitmap layout held for an `n`-node graph with `m` edges, by
/// its own length-based count: 4 bytes per half-edge, an `n`-bit bitmap
/// per node, and one row header per node — `8m + n·8·⌈n/64⌉ + n·h`.
fn bitmap_bytes(n: usize, m: u64) -> u64 {
    8 * m + (n * 8 * n.div_ceil(64) + n * BITMAP_ROW_HEADER) as u64
}

/// E15: arena-backend scaling sweep.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new("E15-engine-scaling");
    let sizes: Vec<usize> = if args.quick {
        vec![1 << 14, 1 << 17, 1 << 20]
    } else {
        (14..=20).map(|p| 1usize << p).collect()
    };
    let horizon: u64 = if args.quick { 6 } else { 16 };
    // Edge-doubling trials stay at sizes where a trial is milliseconds.
    let doubling_cap: usize = if args.quick { 1 << 14 } else { 1 << 16 };
    let trials = if args.trials > 0 {
        args.trials
    } else if args.quick {
        2
    } else {
        3
    };
    // The paper-facing comparison point: 2^17, where bitmap rows would
    // hold ≈ 2 GiB. Both sweeps include it.
    let cmp_n: usize = 1 << 17;
    let mut cmp = None;

    let mut growth = Table::new(["process", "n", "rounds", "edges added", "arena bytes"]);
    let mut doubling = Table::new(["process", "n", "trials", "mean rounds to 2x edges"]);

    for &n in &sizes {
        let g0 = sparse_arena(n, 2 * n as u64, args.seed);
        let m0 = g0.m();
        for rule in [RuleId::Pull, RuleId::Push] {
            let (name, is_pull) = (rule.name(), rule == RuleId::Pull);
            // Fixed-horizon run (the n = 2^20 pull row is the
            // "clean Two-Hop Walk run at a million nodes" acceptance gate).
            let (m, mem_bytes) = {
                let mut e = Engine::new(g0.clone(), rule, args.seed ^ 0x7400);
                let m = e.run_until(&mut Never, horizon).final_edges;
                (m, e.graph().memory_bytes())
            };
            let added = m - m0;
            report.measure_scalar("rounds", name, "tree+2n", n as u64, horizon as f64);
            report.measure_scalar("edges_added", name, "tree+2n", n as u64, added as f64);
            if is_pull {
                report.measure_scalar("mem_bytes", "arena", "tree+2n", n as u64, mem_bytes as f64);
                if n == cmp_n {
                    cmp = Some((m, mem_bytes));
                }
            }
            growth.push_row([
                name.to_string(),
                n.to_string(),
                horizon.to_string(),
                added.to_string(),
                mem_bytes.to_string(),
            ]);

            // Edge-doubling time through the streaming trial runner.
            if n <= doubling_cap && is_pull {
                let cfg = TrialConfig {
                    trials,
                    base_seed: args.seed ^ (n as u64) << 4,
                    max_rounds: 10_000,
                };
                let mut rounds = Vec::new();
                stream_trials(
                    &g0,
                    Pull,
                    |g| EdgesAtLeast { target: 2 * g.m() },
                    &cfg,
                    Parallelism::default(),
                    |_, out| {
                        assert!(out.converged, "edge doubling exceeded round budget");
                        rounds.push(out.rounds);
                    },
                );
                report.measure_rounds("pull-doubling", "tree+2n", n as u64, &rounds);
                doubling.push_row([
                    "pull".to_string(),
                    n.to_string(),
                    trials.to_string(),
                    fmt_f64(crate::harness::mean(&rounds)),
                ]);
            }
        }
    }

    // The bitmap layout at the comparison size, evaluated at the same
    // pull run's final edge count.
    let (m, arena_bytes) = cmp.expect("the sweep includes the comparison size");
    let bitmap = bitmap_bytes(cmp_n, m);
    let ratio = bitmap as f64 / arena_bytes as f64;
    report.measure_scalar(
        "mem_bytes",
        "adjset",
        "tree+2n",
        cmp_n as u64,
        bitmap as f64,
    );
    report.measure_scalar(
        "mem_ratio",
        "adjset-vs-arena",
        "tree+2n",
        cmp_n as u64,
        ratio,
    );
    let mut memory = Table::new(["n", "arena bytes", "bitmap rows bytes", "reduction"]);
    memory.push_row([
        cmp_n.to_string(),
        arena_bytes.to_string(),
        bitmap.to_string(),
        format!("{:.0}x", ratio),
    ]);

    report.note(format!(
        "arena backend: O(m + n) storage vs an n^2/8-byte bitmap layout; at n = 2^17 \
         the same {horizon}-round pull run's edges would need {}x more graph memory \
         in bitmap rows (8m + n*8*ceil(n/64) + {BITMAP_ROW_HEADER}n bytes).",
        fmt_f64(ratio)
    ));
    report.table("fixed-horizon growth (arena backend)", growth);
    report.table("edge-doubling time (streamed trials)", doubling);
    report.table(
        "memory: arena vs bitmap rows at the comparison size",
        memory,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_arena_is_connected_and_sized() {
        let g = sparse_arena(512, 1024, 7);
        assert_eq!(g.n(), 512);
        assert_eq!(g.m(), 511 + 1024);
        g.validate().unwrap();
    }

    #[test]
    fn quick_run_records_deterministic_measurements() {
        // A scaled-down args set (the real quick sweep reaches 2^20 and is
        // exercised by CI's `run_all --only E15` smoke run, not unit tests).
        let args = Args {
            quick: true,
            trials: 1,
            ..Args::default()
        };
        // Shrink further for unit-test speed by monkeying the sweep via
        // direct calls: run the pieces the experiment is built from.
        let n = 1 << 12;
        let g = sparse_arena(n, 2 * n as u64, args.seed);
        let m0 = g.m();
        let mut e = Engine::new(g, Pull, args.seed);
        let out = e.run_until(&mut Never, 4);
        assert_eq!(out.rounds, 4);
        assert!(out.final_edges > m0);
        // Even with growth reserve, dead space, and fixed per-node
        // bookkeeping (which dominates at this deliberately small n), the
        // arena stays well under the n²/8-byte bitmap floor; the ratio at
        // 2^17 lands in RESULTS.md.
        assert!(e.graph().memory_bytes() < n * n / 8 / 2);
    }

    #[test]
    fn edges_at_least_check_fires() {
        let g = sparse_arena(256, 512, 3);
        let mut check = EdgesAtLeast { target: 2 * g.m() };
        assert!(!check.is_converged(&g));
        let mut e = Engine::new(g, Pull, 11);
        let out = e.run_until(&mut check, 10_000);
        assert!(out.converged);
        assert!(out.final_edges >= 2 * (255 + 512));
    }
}
