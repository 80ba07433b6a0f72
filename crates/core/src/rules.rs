//! The paper's two discovery processes, verbatim.
//!
//! Each rule is a thin [`ProposalRule`] adapter over its state-machine
//! kernel in [`crate::kernel`]: the kernel makes every decision through
//! the chooser/view seam, and [`kernel_propose`] maps it onto the batch
//! engines' per-node RNG stream — bit-identical to the pre-kernel
//! hand-written rules (same draws, same order, same guards).

use crate::kernel::{kernel_propose, HybridKernel, PullKernel, PushKernel};
use crate::process::{GossipGraph, ProposalRule, ProposalSet, TaggedProposal};
use crate::rng::stream_rng;
use gossip_graph::{DirectedGraph, NodeId, UniformNeighbors};
use rand::rngs::SmallRng;
use rand::Rng;
use std::ops::Range;

/// **Push discovery (triangulation)** — Section 3.
///
/// Each round, node `u` draws `v, w` i.i.d. uniformly from `N(u)` and
/// proposes the edge `(v, w)`. Draws are *with replacement* (the paper's
/// Lemma 3 computes a `1/d(w)²` probability for an ordered pair), so `v = w`
/// is possible and then nothing happens. `u` needs no two-hop knowledge: it
/// introduces two of its own neighbors to each other.
///
/// Generic over [`UniformNeighbors`], so the same rule drives
/// [`gossip_graph::ArenaGraph`] and [`gossip_graph::ShardedArenaGraph`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Push;

impl<G: GossipGraph> ProposalRule<G> for Push {
    #[inline]
    fn propose(&self, g: &G, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
        kernel_propose(&PushKernel, g, u, rng)
    }
}

/// **Pull discovery (two-hop walk)** — Section 4.
///
/// Each round, node `u` draws `v` uniformly from `N(u)`, then `w` uniformly
/// from `N(v)`, and proposes the edge `(u, w)`. The walk may step back onto
/// `u` itself (`u ∈ N(v)`), in which case nothing happens.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pull;

impl<G: GossipGraph> ProposalRule<G> for Pull {
    #[inline]
    fn propose(&self, g: &G, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
        kernel_propose(&PullKernel, g, u, rng)
    }

    fn propose_range(
        &self,
        g: &G,
        seed: u64,
        round: u64,
        nodes: Range<usize>,
        buf: &mut Vec<TaggedProposal>,
    ) {
        two_hop_range(g, seed, round, nodes, buf);
    }
}

/// Nodes whose two-hop walks [`two_hop_range`] advances together.
const WALK_BLOCK: usize = 64;

/// The pull walk `u → v → w` of every node in `nodes`, a block at a time
/// and a stage at a time, so the cache misses of a block's walks overlap
/// instead of each walk waiting on its own two in turn: (1) the own row
/// and the first draw, keeping each node's stream; (2) every peer's row
/// header; (3) the second draws, which only pick an address; (4) the
/// picked entries. Each node still makes [`PullKernel`]'s draws, in its
/// order and under its guards, on its own `(seed, round, node)` stream, so
/// `buf` comes out as the per-node loop leaves it.
fn two_hop_range<G: UniformNeighbors>(
    g: &G,
    seed: u64,
    round: u64,
    nodes: Range<usize>,
    buf: &mut Vec<TaggedProposal>,
) {
    let mut walks: Vec<(NodeId, SmallRng, NodeId)> = Vec::with_capacity(WALK_BLOCK);
    let mut peer_rows: Vec<&[NodeId]> = Vec::with_capacity(WALK_BLOCK);
    let mut picks: Vec<(NodeId, &NodeId)> = Vec::with_capacity(WALK_BLOCK);
    for lo in nodes.clone().step_by(WALK_BLOCK) {
        walks.clear();
        for u in lo..(lo + WALK_BLOCK).min(nodes.end) {
            let me = NodeId::new(u);
            let row = g.neighbor_row(me);
            if !row.is_empty() {
                let mut rng = stream_rng(seed, round, u as u64);
                let v = row[rng.random_range(0..row.len())];
                walks.push((me, rng, v));
            }
        }
        peer_rows.clear();
        peer_rows.extend(walks.iter().map(|&(_, _, v)| g.neighbor_row(v)));
        picks.clear();
        for ((me, rng, _), row) in walks.iter_mut().zip(&peer_rows) {
            if !row.is_empty() {
                picks.push((*me, &row[rng.random_range(0..row.len())]));
            }
        }
        buf.extend(
            picks
                .iter()
                .filter(|&&(me, w)| *w != me)
                .map(|&(me, w)| (me, me, *w)),
        );
    }
}

/// **Directed two-hop walk** — Section 5.
///
/// Node `u` takes a two-hop directed random walk `u -> v -> w` along
/// out-edges and proposes the arc `(u, w)`. Nodes whose first hop lands on a
/// sink (no out-edges) do nothing that round, as do walks returning to `u`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectedPull;

impl ProposalRule<DirectedGraph> for DirectedPull {
    #[inline]
    fn propose(&self, g: &DirectedGraph, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
        // Same walk kernel as the undirected pull; the directed graph's
        // `UniformNeighbors` row is its out-neighbor list, so the walk
        // follows arcs and dies on sinks exactly as before.
        kernel_propose(&PullKernel, g, u, rng)
    }

    fn propose_range(
        &self,
        g: &DirectedGraph,
        seed: u64,
        round: u64,
        nodes: Range<usize>,
        buf: &mut Vec<TaggedProposal>,
    ) {
        two_hop_range(g, seed, round, nodes, buf);
    }
}

/// **Hybrid push + pull**: each node performs both a triangulation step and
/// a two-hop-walk step every round. Not analyzed in the paper (its §6 asks
/// about variants); included as the natural "best of both" ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridPushPull;

impl<G: GossipGraph> ProposalRule<G> for HybridPushPull {
    #[inline]
    fn propose(&self, g: &G, u: NodeId, rng: &mut SmallRng) -> ProposalSet {
        kernel_propose(&HybridKernel, g, u, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;
    use gossip_graph::{generators, ArenaGraph};

    #[test]
    fn push_proposes_edges_between_own_neighbors() {
        let g = generators::star(6); // center 0
        let mut hits = 0;
        for node_stream in 0..200 {
            let mut rng = stream_rng(1, node_stream, 0);
            let p = Push.propose(&g, NodeId(0), &mut rng);
            for &(a, b) in p.as_slice() {
                assert!(g.has_edge(NodeId(0), a) && g.has_edge(NodeId(0), b));
                assert_ne!(a, b);
                hits += 1;
            }
        }
        // 5 leaves -> P(v != w) = 4/5; expect ~160 proposals out of 200.
        assert!(hits > 120, "push almost never proposed: {hits}");
    }

    #[test]
    fn push_from_leaf_is_noop() {
        let g = generators::star(6);
        // A leaf has one neighbor: the pair draw is always (c, c).
        for s in 0..50 {
            let mut rng = stream_rng(2, s, 1);
            assert!(Push.propose(&g, NodeId(1), &mut rng).is_empty());
        }
    }

    #[test]
    fn pull_reaches_two_hop_only() {
        let g = generators::path(5); // 0-1-2-3-4
        for s in 0..300 {
            let mut rng = stream_rng(3, s, 0);
            let p = Pull.propose(&g, NodeId(0), &mut rng);
            for &(a, b) in p.as_slice() {
                assert_eq!(a, NodeId(0));
                // From 0 the walk goes 0->1->{0,2}; only 2 survives.
                assert_eq!(b, NodeId(2));
            }
        }
    }

    #[test]
    fn pull_on_isolated_node_is_noop() {
        let g = ArenaGraph::new(3);
        let mut rng = stream_rng(4, 0, 0);
        assert!(Pull.propose(&g, NodeId(0), &mut rng).is_empty());
        assert!(Push.propose(&g, NodeId(0), &mut rng).is_empty());
    }

    #[test]
    fn directed_pull_respects_arcs() {
        let g = generators::directed_cycle(4);
        for s in 0..100 {
            let mut rng = stream_rng(5, s, 0);
            let p = DirectedPull.propose(&g, NodeId(0), &mut rng);
            for &(a, b) in p.as_slice() {
                assert_eq!(a, NodeId(0));
                assert_eq!(b, NodeId(2)); // only 0->1->2 exists
            }
        }
    }

    #[test]
    fn directed_pull_sink_first_hop() {
        // 0 -> 1, 1 has no out-edges: walk dies at v.
        let g = DirectedGraph::from_arcs(2, [(0, 1)]);
        for s in 0..20 {
            let mut rng = stream_rng(6, s, 0);
            assert!(DirectedPull.propose(&g, NodeId(0), &mut rng).is_empty());
        }
    }

    #[test]
    fn hybrid_proposes_up_to_two() {
        let g = generators::complete(5);
        let mut total = 0;
        for s in 0..100 {
            let mut rng = stream_rng(7, s, 2);
            let p = HybridPushPull.propose(&g, NodeId(2), &mut rng);
            assert!(p.len() <= 2);
            total += p.len();
        }
        assert!(total > 100, "hybrid should usually propose edges: {total}");
    }
}
