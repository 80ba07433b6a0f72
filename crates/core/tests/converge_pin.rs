//! Pinned trajectory of the paper's question on one graph: Push from a
//! sparse `G_0` all the way to the complete graph, sequentially, at
//! n = 512 and seed 7.
//!
//! In the tail of this run almost every proposal is an edge the graph
//! already holds, and every row is long enough to be dense, so the
//! membership test that rejects those duplicates reads a row's bitmap
//! sidecar, not the row. A sidecar that disagrees with its row by one id
//! moves a merge, then every later draw, and the final rows, edge count
//! and round count below with it.

use gossip_core::rng::stream_rng;
use gossip_core::{ComponentwiseComplete, Engine, Parallelism, Push};
use gossip_graph::{ArenaGraph, NodeId};
use rand::Rng;

const N: usize = 512;
const SEED: u64 = 7;

/// The sparse family: a random-parent tree, then uniform random pairs from
/// the same `stream_rng(seed, 0xA1, n)` stream until the graph holds
/// `3n - 1` edges.
fn sparse_g0(n: usize, seed: u64) -> ArenaGraph {
    let mut rng = stream_rng(seed, 0xA1, n as u64);
    let mut g = ArenaGraph::new(n);
    for i in 1..n as u32 {
        g.add_edge(NodeId(i), NodeId(rng.random_range(0..i)));
    }
    while g.m() < 3 * n as u64 - 1 {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        g.add_edge(NodeId(a), NodeId(b));
    }
    g
}

/// FNV-1a over every row as `(u << 32 | v)` little-endian words, each row
/// closed by one `0xFF` byte.
fn row_checksum(g: &ArenaGraph) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for u in g.nodes() {
        for &v in g.neighbors(u) {
            eat(&(u64::from(u.0) << 32 | u64::from(v.0)).to_le_bytes());
        }
        eat(&[0xFF]);
    }
    h
}

#[test]
fn push_to_the_complete_graph_at_n_512_replays_its_pin() {
    let g0 = sparse_g0(N, SEED);
    assert_eq!(g0.m(), 3 * N as u64 - 1);
    let mut check = ComponentwiseComplete::for_graph(&g0);
    let mut engine = Engine::new(g0, Push, SEED).with_parallelism(Parallelism::Sequential);
    let out = engine.run_until(&mut check, 100_000);
    let g = engine.graph();
    g.validate().unwrap();
    assert_eq!((g.m(), out.rounds), (130_816, 3_101));
    assert_eq!(format!("{:016x}", row_checksum(g)), "32c201c5010f8925");
}
