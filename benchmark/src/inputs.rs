//! Workload inputs, made from the seed alone: the repo's standard sparse
//! family (random-parent tree + 2n uniform random edges, the same
//! `stream_rng(seed, 0xA1, n)` stream as `exp_scale`'s `sparse_arena`,
//! whose helpers are `pub(crate)`), and the FNV row checksum the output
//! checks compare.

use gossip_core::rng::stream_rng;
use gossip_graph::{ArenaGraph, NodeId, ShardedArenaGraph};
use rand::Rng;

/// Feeds the sparse family's edges to `add_edge` (which reports whether the
/// edge was new) until the graph holds `n - 1 + 2n` edges.
fn fill_sparse(n: usize, seed: u64, mut add_edge: impl FnMut(NodeId, NodeId) -> bool) {
    let mut rng = stream_rng(seed, 0xA1, n as u64);
    let mut m = 0u64;
    for i in 1..n as u32 {
        m += add_edge(NodeId(i), NodeId(rng.random_range(0..i))) as u64;
    }
    let target = 3 * n as u64 - 1;
    while m < target {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        m += add_edge(NodeId(a), NodeId(b)) as u64;
    }
}

/// `G_0` in the single-arena layout.
pub fn sparse_arena(n: usize, seed: u64) -> ArenaGraph {
    let mut g = ArenaGraph::new(n);
    fill_sparse(n, seed, |a, b| g.add_edge(a, b));
    g
}

/// The same `G_0` in the sharded layout.
pub fn sparse_sharded(n: usize, seed: u64, shards: usize) -> ShardedArenaGraph {
    let mut g = ShardedArenaGraph::new(n, shards);
    fill_sparse(n, seed, |a, b| g.add_edge(a, b));
    g
}

/// FNV-1a over every row, row boundaries included: with `m`, the identity
/// of a graph for the cross-engine output checks.
pub fn row_checksum<'a>(n: usize, neighbors: impl Fn(NodeId) -> &'a [NodeId]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    for u in 0..n as u32 {
        for &v in neighbors(NodeId(u)) {
            eat(&((u as u64) << 32 | v.0 as u64).to_le_bytes());
        }
        eat(&[0xFF]);
    }
    h
}

/// `(m, row checksum)` of an arena graph.
pub fn arena_identity(g: &ArenaGraph) -> (u64, u64) {
    (g.m(), row_checksum(g.n(), |u| g.neighbors(u)))
}

/// `(m, row checksum)` of a sharded graph.
pub fn sharded_identity(g: &ShardedArenaGraph) -> (u64, u64) {
    (g.m(), row_checksum(g.n(), |u| g.neighbors(u)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_and_sharded_builds_of_one_seed_are_the_same_graph() {
        for (n, seed) in [(300, 7), (5000, 11)] {
            let arena = sparse_arena(n, seed);
            assert_eq!(arena.m(), 3 * n as u64 - 1);
            arena.validate().unwrap();
            for shards in [1, 2, 8] {
                let sharded = sparse_sharded(n, seed, shards);
                sharded.validate().unwrap();
                assert_eq!(arena_identity(&arena), sharded_identity(&sharded));
            }
            // Another seed is another graph.
            assert_ne!(
                arena_identity(&arena).1,
                arena_identity(&sparse_arena(n, seed + 1)).1
            );
        }
    }

    #[test]
    fn checksum_sees_row_boundaries() {
        // Same neighbour sequence, split differently over two rows.
        let a = [vec![NodeId(1), NodeId(2)], vec![]];
        let b = [vec![NodeId(1)], vec![NodeId(2)]];
        assert_ne!(
            row_checksum(2, |u| &a[u.index()]),
            row_checksum(2, |u| &b[u.index()])
        );
    }
}
