//! Engine-level counterpart of `crates/net/tests/churn_regression.rs`:
//! pinned integer trajectories of the membership seam under the shared
//! churn fixture.
//!
//! Both suites derive their runs from `gossip_core::membership::fixture`
//! (same seed pairs, same snapshot cadence), so a change that perturbs
//! the shared counter-based RNG streams — re-keying, extra draws,
//! reordered draws — fails the simulator pins and these engine pins on
//! the same seeds, instead of letting one layer drift silently.
//!
//! Everything pinned is an integer (edge counts, row counts, cumulative
//! membership stats): the trajectory replays bit-for-bit or the contract
//! is broken. The sharded engine is asserted against the same pins, so
//! the fixture also cross-checks the engines against each other.

use gossip_core::membership::fixture::{bursts_for, SEED_PAIRS, SNAP_EVERY};
use gossip_core::rng::stream_rng;
use gossip_core::{Engine, MembershipPlan, Parallelism, Push};
use gossip_graph::{generators, ArenaGraph, ShardedArenaGraph};
use gossip_shard::ShardedEngine;

const N: usize = 128;
const ROUNDS: u64 = 60;

/// Integer state snapshot: `(round, m, nonempty rows, joins, leaves,
/// edges added by joins, edges removed by leaves)`.
#[derive(Debug, PartialEq, Eq)]
struct Snap {
    round: u64,
    m: u64,
    nonempty_rows: usize,
    joins: u64,
    leaves: u64,
    edges_added: u64,
    edges_removed: u64,
}

fn start_graph(pair: (u64, u64)) -> ArenaGraph {
    generators::tree_plus_random_edges(N, N as u64, &mut stream_rng(pair.0, 0, 0))
}

fn plan(pair: (u64, u64)) -> MembershipPlan {
    MembershipPlan::bursts(&bursts_for(N, pair))
}

/// Drives `rounds` rounds, snapshotting every [`SNAP_EVERY`] rounds.
/// Generic over the two engines through a per-round callback.
fn trajectory(mut step: impl FnMut() -> (u64, usize, gossip_core::MembershipStats)) -> Vec<Snap> {
    let mut out = Vec::new();
    for round in 1..=ROUNDS {
        let (m, nonempty_rows, stats) = step();
        if round % SNAP_EVERY == 0 {
            out.push(Snap {
                round,
                m,
                nonempty_rows,
                joins: stats.joins,
                leaves: stats.leaves,
                edges_added: stats.edges_added,
                edges_removed: stats.edges_removed,
            });
        }
    }
    out
}

fn sequential_trajectory(pair: (u64, u64)) -> Vec<Snap> {
    let mut e = Engine::new(start_graph(pair), Push, pair.0)
        .with_parallelism(Parallelism::Sequential)
        .with_membership(plan(pair));
    trajectory(move || {
        e.step();
        let nonempty = e
            .graph()
            .nodes()
            .filter(|&u| e.graph().degree(u) > 0)
            .count();
        (e.graph().m(), nonempty, e.membership_stats())
    })
}

fn sharded_trajectory(pair: (u64, u64), shards: usize) -> Vec<Snap> {
    let g = ShardedArenaGraph::from_arena(&start_graph(pair), shards);
    let mut e = ShardedEngine::new(g, Push, pair.0).with_membership(plan(pair));
    trajectory(move || {
        e.step();
        let nonempty = e
            .graph()
            .nodes()
            .filter(|&u| e.graph().degree(u) > 0)
            .count();
        (e.graph().m(), nonempty, e.membership_stats())
    })
}

/// Pin helper: `(round, m, nonempty, joins, leaves, added, removed)`.
fn snap(t: (u64, u64, usize, u64, u64, u64, u64)) -> Snap {
    Snap {
        round: t.0,
        m: t.1,
        nonempty_rows: t.2,
        joins: t.3,
        leaves: t.4,
        edges_added: t.5,
        edges_removed: t.6,
    }
}

#[test]
fn pinned_engine_trajectory_pair_0() {
    // Values captured at the introduction of the membership seam (PR 8);
    // they are pure functions of the fixture seeds and the engine/plan
    // code. A diff here means the shared RNG stream contract moved.
    // (Snapshots land after each burst's rejoin window, so all 128 rows
    // are nonempty at every pin — the bursts plan ends fully rejoined.)
    let want: Vec<Snap> = [
        (15, 628, 128, 8, 8, 24, 46),
        (30, 1303, 128, 16, 16, 48, 177),
        (45, 2050, 128, 24, 24, 72, 334),
        (60, 2936, 128, 24, 24, 72, 334),
    ]
    .into_iter()
    .map(snap)
    .collect();
    assert_eq!(sequential_trajectory(SEED_PAIRS[0]), want);
}

#[test]
fn pinned_engine_trajectory_pair_1() {
    let want: Vec<Snap> = [
        (15, 635, 128, 8, 8, 24, 34),
        (30, 1339, 128, 16, 16, 48, 126),
        (45, 2013, 128, 24, 24, 72, 333),
        (60, 2832, 128, 24, 24, 72, 333),
    ]
    .into_iter()
    .map(snap)
    .collect();
    assert_eq!(sequential_trajectory(SEED_PAIRS[1]), want);
}

#[test]
fn sharded_engine_replays_the_same_pins() {
    // The cross-layer guarantee: the sharded engine (any S) walks the
    // exact pinned trajectory of the sequential engine under the same
    // fixture plan.
    for pair in SEED_PAIRS {
        let reference = sequential_trajectory(pair);
        for shards in [2usize, 8] {
            assert_eq!(
                sharded_trajectory(pair, shards),
                reference,
                "pair {pair:?} S={shards} diverged from the fixture trajectory"
            );
        }
    }
}
