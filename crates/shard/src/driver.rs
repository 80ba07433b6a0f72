//! The shard round, written once.
//!
//! Every engine in this workspace runs the same round — propose against
//! `G_t`, route half-edges to their owner shards, merge each owner's
//! column — and this module holds the one copy of each step that the
//! in-process [`ShardedEngine`](crate::ShardedEngine) and the two
//! cross-process carriers share.

use gossip_core::TaggedProposal;
use gossip_graph::{HalfEdge, ShardPlan, ShardSeg, ShardedArenaGraph};
use rayon::prelude::*;
use std::ops::Range;

/// Routes the proposals of the chunks in `span` into per-owner mailboxes
/// (cleared first): each proposal `(u, a, b)` becomes the half-edge
/// `(a, b)` in `boxes[owner(a)]` and `(b, a)` in `boxes[owner(b)]`, tagged
/// with its slot in the span's own node-order stream. Returns the number
/// of proposals walked.
///
/// Slots are local to the source span. That is safe because the merge
/// ([`ShardSeg::apply_half_edges`]) sorts by `(key, slot)`, dedups by key
/// and then *discards the slot* — only the relative order within one
/// source stream could ever matter, and chunk-order walking preserves it.
pub(crate) fn route_span(
    plan: &ShardPlan,
    chunk_bufs: &[Vec<TaggedProposal>],
    span: Range<usize>,
    boxes: &mut [Vec<HalfEdge>],
) -> u64 {
    for b in boxes.iter_mut() {
        b.clear();
    }
    let mut base = 0u32;
    for buf in &chunk_bufs[span] {
        for (i, &(_, a, b)) in buf.iter().enumerate() {
            let here = base + i as u32;
            if a == b {
                continue;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            boxes[plan.owner(lo)].push((here, lo, hi));
            boxes[plan.owner(hi)].push((here, hi, lo));
        }
        base += buf.len() as u32;
    }
    u64::from(base)
}

/// One owner shard's apply-phase work unit: `(shard index, its segment,
/// its merge scratch, its added-count slot)` — disjoint borrows the pool
/// fans out with no aliasing.
type ShardWork<'a> = (
    usize,
    &'a mut ShardSeg,
    &'a mut Vec<(u64, u32)>,
    &'a mut u64,
);

/// The apply phase: owner `t` merges its mailbox column
/// `mail[0][t], mail[1][t], …` — fixed source order — into its own
/// segment, leaving its count of new canonical edges in `added[t]`.
/// Shard-parallel when `parallel`; no locks, no cross-shard writes.
pub(crate) fn apply_grid(
    graph: &mut ShardedArenaGraph,
    scratch: &mut [Vec<(u64, u32)>],
    added: &mut [u64],
    parallel: bool,
    mail: &[Vec<Vec<HalfEdge>>],
) {
    // segments_mut is the CoW commit point: any segment still shared
    // with an epoch snapshot is deep-copied here, before the fan-out.
    let mut work: Vec<ShardWork<'_>> = graph
        .segments_mut()
        .into_iter()
        .zip(scratch.iter_mut())
        .zip(added.iter_mut())
        .enumerate()
        .map(|(t, ((seg, scratch), added))| (t, seg, scratch, added))
        .collect();
    let apply = |(t, seg, scratch, added): &mut ShardWork<'_>| {
        let sources: Vec<&[HalfEdge]> = mail.iter().map(|row| row[*t].as_slice()).collect();
        **added = seg.apply_half_edges(&sources, scratch);
    };
    if parallel {
        work.par_iter_mut().for_each(apply);
    } else {
        work.iter_mut().for_each(apply);
    }
}
