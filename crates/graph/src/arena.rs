//! Arena-backed adjacency storage for million-node runs.
//!
//! An `n`-bit membership bitmap per node would cost `n²/8` bytes before a
//! single edge exists — two gigabytes at `n = 2^17` and out of reach at
//! `n = 2^20`. The structures here keep every node's list in **one
//! contiguous edge arena** shared by all nodes instead:
//!
//! * [`SliceArena`] — a slab of per-node growable slices living in a single
//!   `Vec<NodeId>`. A node's list occupies `data[start[u] .. start[u]+len[u]]`
//!   with reserved capacity `cap[u]`. A full list **relocates** to the end of
//!   the slab with its capacity grown ~1.5× (amortized O(1) per entry),
//!   and when abandoned regions outweigh reserved ones the slab is
//!   **compacted in place** in one epoch pass — no per-node reallocation
//!   ever happens, and a compaction never holds a second slab.
//! * [`ArenaGraph`] — an undirected graph whose neighbor lists are *sorted*
//!   `SliceArena` slices: uniform sampling is one index into a contiguous
//!   slice, membership is a binary search on a short row and one bit on a
//!   dense one (below), and a whole round's proposals merge in one
//!   row-ordered pass ([`SliceArena::merge_rows`], which
//!   [`ArenaGraph::apply_batch`] and the sharded segments both end in).
//!
//! # Dense rows
//!
//! The bitmap is the right layout for a row once the row is dense, and
//! only then. A sorted list longer than `universe / 32` — `universe` the
//! bound on the ids it holds, `n` for a graph — gets a `universe`-bit
//! membership *sidecar*, which is then no bigger than the row's own
//! `4·len` bytes (Roaring bitmaps switch a container at the same density).
//! On such a row every membership test — [`SliceArena::contains_sorted`],
//! the duplicate tests of the sorted inserts and merges, and so
//! [`ArenaGraph::apply_batch`]'s round-start filter — reads one bit
//! instead of binary-searching up to `n - 1` ids, which is what the tail
//! of a run to the complete graph does almost every time. The sorted slice
//! stays the row: sampling, iteration and every trajectory are unchanged.
//! Sidecars live outside the slab, so relocation and compaction never move
//! them, and an arena with no dense row holds none.
//!
//! Memory is `O(m + n)` — `4` bytes per stored half-edge plus fixed per-node
//! bookkeeping, and a dense row's sidecar is no bigger than the row —
//! restoring the paper's large-`n` regime: a machine that
//! would top out near `n = 2^17` on bitmap rows runs `n = 2^20` comfortably
//! on the arena (see `gossip-bench`'s `run_all --only E15`).
//!
//! # Why determinism survives compaction order under churn
//!
//! Membership churn ([`ArenaGraph::remove_member`] /
//! [`ArenaGraph::admit_member`]) makes relocation and epoch compaction
//! fire at *different moments* on different backends: a leave tombstones a
//! row ([`SliceArena::clear`]), tombstone dead space feeds the compaction
//! trigger, and the sharded backend splits the same slab into per-segment
//! arenas whose triggers fire independently. None of that can perturb a
//! trajectory, because relocation and compaction only move rows
//! *physically* — a row's **contents and sorted order are preserved
//! verbatim**, and every reader (sampling, membership tests, batch merge)
//! goes through the logical `data[start[u]..start[u]+len[u]]` slice, never
//! through slab offsets. The rule/kernel draw sequence is a function of
//! logical rows only, so two runs whose compactions interleave differently
//! with the same round still produce identical proposals. Membership
//! events themselves apply in canonical plan order between rounds, and a
//! reclaimed slot's reuse changes only *where* a re-admitted row lives,
//! not what it contains. This is pinned by `gossip-core`'s determinism
//! suite with churn events straddling forced compactions, and by the
//! sharded-vs-sequential churn proptests in `gossip-shard`.

use crate::bitset::BitSet;
use crate::node::{Edge, NodeId};
use std::ops::Range;

/// The one read surface of every graph backend: how many nodes there are,
/// and each node's neighbor row. The paper's processes read nothing else —
/// a node reads its own row and, for pull, the row of one neighbor — so
/// the proposal rules, traversal and the served snapshots all read through
/// it. Implemented by [`ArenaGraph`], by [`crate::ShardedArenaGraph`], and
/// (over out-edges) by [`crate::DirectedGraph`].
///
/// Every backend hands out the same sorted row for the same graph, so a
/// rule that draws an index into the row consumes the same RNG stream on
/// any of them.
pub trait UniformNeighbors {
    /// Number of nodes; ids run `0..node_count()`.
    fn node_count(&self) -> usize;

    /// The neighbor list of `u`, in ascending id order (out-neighbors for
    /// directed graphs).
    fn neighbor_row(&self, u: NodeId) -> &[NodeId];
}

/// Reusable buffers of [`SliceArena::merge_rows`]: 8 bytes per half-edge
/// and 4 per list, kept by the caller so steady-state rounds allocate
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct MergeScratch {
    /// After the scatter, `ends[u]` is one past list `u`'s last candidate
    /// in `cand` (list `u`'s candidates start at `ends[u - 1]`).
    ends: Vec<u32>,
    /// `(other, slot)` candidates grouped by destination list, each group
    /// in arrival order.
    cand: Vec<(NodeId, u32)>,
}

impl MergeScratch {
    /// Counting-sorts `halves`, `(list, other, slot)` in arrival order, by
    /// destination list among `lists` (histogram, prefix sums, stable
    /// scatter): list `u`'s candidates end up in arrival order in
    /// `cand[ends[u - 1]..ends[u]]`. The first step of both merge writers.
    ///
    /// # Panics
    /// Panics if `halves` yields more than `u32::MAX` half-edges.
    #[inline(always)]
    fn scatter<I>(&mut self, lists: usize, halves: I)
    where
        I: Iterator<Item = (usize, NodeId, u32)> + Clone,
    {
        let MergeScratch { ends, cand } = self;
        ends.clear();
        ends.resize(lists, 0);
        let mut total = 0u64;
        halves.clone().for_each(|(u, _, _)| {
            ends[u] += 1;
            total += 1;
        });
        assert!(
            total <= u64::from(u32::MAX),
            "a round routes at most u32::MAX half-edges, got {total}"
        );
        let mut first = 0;
        for e in ends.iter_mut() {
            // `*e` becomes list u's first index; the scatter advances it
            // to one past its last.
            let count = *e;
            *e = first;
            first += count;
        }
        cand.clear();
        cand.resize(total as usize, (NodeId(0), 0));
        halves.for_each(|(u, other, slot)| {
            cand[ends[u] as usize] = (other, slot);
            ends[u] += 1;
        });
    }
}

/// A slab of per-node growable lists packed into one `Vec<NodeId>`.
///
/// Node `u`'s list is `data[start[u] .. start[u] + len[u]]`, with
/// `cap[u] - len[u]` reserved slots behind it. Overflowing lists relocate to
/// the slab's end (capacity grown ~1.5×); the abandoned region becomes dead
/// space that an epoch compaction reclaims once it exceeds half the
/// reserved total, by rewriting the slab densely in node order **inside
/// its own allocation**. All mutation is append/shift within the one
/// buffer, so memory stays `O(entries + n)` with no per-node allocations.
///
/// Between compactions the slab is two regions: below `home_end`, the
/// node-ordered layout the last compaction (or the bootstrap
/// `push_list`s) wrote — rows still there are *home* rows,
/// in node order; at and past it, the *tail* rows relocated since, in
/// relocation order.
#[derive(Clone, Debug, Default)]
pub struct SliceArena {
    data: Vec<NodeId>,
    start: Vec<usize>,
    len: Vec<u32>,
    cap: Vec<u32>,
    /// Sum of `cap` — everything in `data` that is *not* dead space.
    reserved: usize,
    /// Sum of `len` — maintained incrementally so [`SliceArena::total_len`]
    /// is O(1); snapshot stat reads must never pay an O(n) scan.
    live: usize,
    /// End of the node-ordered region: a row starting below it is a home
    /// row, one starting at or past it a tail row.
    home_end: usize,
    /// Membership bitmaps of the dense sorted lists.
    side: Sidecars,
}

/// [`Sidecars::slot`]'s mark for a list without a bitmap.
const SPARSE: u32 = u32::MAX;

/// The membership bitmaps of a [`SliceArena`]'s dense sorted lists (see
/// the [module docs](self)), kept outside the slab.
#[derive(Clone, Debug, Default, PartialEq)]
struct Sidecars {
    /// Every id the arena's lists hold is below this.
    universe: usize,
    /// `u64` words per bitmap, `universe` bits.
    words: usize,
    /// List `u`'s bitmap is `bits[slot[u] * words..][..words]`, or there is
    /// none ([`SPARSE`]). Empty until the first list goes dense, one entry
    /// per list from then on.
    slot: Vec<u32>,
    /// The bitmaps, `words` each.
    bits: Vec<u64>,
    /// Bitmaps released by lists that are no longer dense, zeroed.
    free: Vec<u32>,
}

impl Sidecars {
    /// Where list `u`'s bitmap is in `bits`, if it has one.
    #[inline]
    fn at(&self, u: usize) -> Option<Range<usize>> {
        let k = *self.slot.get(u)? as usize;
        (k != SPARSE as usize).then(|| k * self.words..(k + 1) * self.words)
    }

    /// List `u`'s bitmap, if it has one.
    #[inline]
    fn of(&self, u: usize) -> Option<&[u64]> {
        self.at(u).map(|r| &self.bits[r])
    }

    #[inline]
    fn of_mut(&mut self, u: usize) -> Option<&mut [u64]> {
        self.at(u).map(|r| &mut self.bits[r])
    }

    /// Whether a sorted list of `len` entries is past the density rule.
    #[inline]
    fn dense(&self, len: usize) -> bool {
        len > self.universe / 32
    }

    /// Gives list `u` (one of `lists`) a bitmap holding `row`.
    ///
    /// # Panics
    /// Panics if `row` holds an id outside the universe.
    #[cold]
    fn attach(&mut self, u: usize, lists: usize, row: &[NodeId]) {
        let universe = self.universe;
        if let Some(v) = row.iter().find(|v| v.index() >= universe) {
            panic!("id {v:?} in a list of an arena whose ids are below {universe}");
        }
        if self.slot.len() < lists {
            self.slot.resize(lists, SPARSE);
        }
        let k = self.free.pop().unwrap_or_else(|| {
            self.bits.resize(self.bits.len() + self.words, 0);
            (self.bits.len() / self.words - 1) as u32
        });
        self.slot[u] = k;
        let bits = &mut self.bits[k as usize * self.words..][..self.words];
        row.iter().for_each(|&v| set(bits, v));
    }

    /// Zeroes list `u`'s bitmap, if it has one, and frees it.
    fn release(&mut self, u: usize) {
        if let Some(r) = self.at(u) {
            self.bits[r].fill(0);
            self.free.push(std::mem::replace(&mut self.slot[u], SPARSE));
        }
    }

    fn bytes(&self) -> usize {
        (self.slot.len() + self.free.len()) * std::mem::size_of::<u32>()
            + self.bits.len() * std::mem::size_of::<u64>()
    }
}

#[inline]
fn has(bits: &[u64], v: NodeId) -> bool {
    bits.get(v.index() / 64)
        .is_some_and(|w| w >> (v.0 % 64) & 1 != 0)
}

#[inline]
fn set(bits: &mut [u64], v: NodeId) {
    bits[v.index() / 64] |= 1 << (v.0 % 64);
}

impl SliceArena {
    /// An arena of `lists` empty lists holding ids below `universe` (the
    /// bound the [density rule](crate::arena#dense-rows) is taken against).
    pub fn new(lists: usize, universe: usize) -> Self {
        SliceArena {
            data: Vec::new(),
            start: vec![0; lists],
            len: vec![0; lists],
            cap: vec![0; lists],
            reserved: 0,
            live: 0,
            home_end: 0,
            side: Sidecars {
                universe,
                words: universe.div_ceil(64),
                ..Sidecars::default()
            },
        }
    }

    /// Number of lists.
    #[inline]
    pub fn lists(&self) -> usize {
        self.start.len()
    }

    /// Length of list `u`.
    #[inline]
    pub fn len(&self, u: usize) -> usize {
        self.len[u] as usize
    }

    /// Reserved capacity of list `u` (`0` for a tombstone).
    #[inline]
    pub(crate) fn cap(&self, u: usize) -> u32 {
        self.cap[u]
    }

    /// Whether list `u` is empty.
    #[inline]
    pub fn is_empty(&self, u: usize) -> bool {
        self.len[u] == 0
    }

    /// List `u` as a slice.
    #[inline]
    pub fn slice(&self, u: usize) -> &[NodeId] {
        &self.data[self.start[u]..self.start[u] + self.len[u] as usize]
    }

    /// Total live entries across all lists — O(1), read from the counter
    /// maintained by every mutation (pinned by the `total_len_is_cached`
    /// test against a recount).
    #[inline]
    pub fn total_len(&self) -> usize {
        self.live
    }

    /// Bytes held in the backing buffers (lengths, not allocator capacity,
    /// so the number is deterministic for a deterministic operation
    /// sequence; dead space awaiting compaction and the sidecars are
    /// included).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<NodeId>()
            + self.start.len() * std::mem::size_of::<usize>()
            + self.len.len() * std::mem::size_of::<u32>()
            + self.cap.len() * std::mem::size_of::<u32>()
            + self.side.bytes()
    }

    /// Appends `v` to list `u` without any ordering or duplicate check —
    /// and without touching a sidecar, so a list written through `push` is
    /// not read through the sorted operations.
    #[inline]
    pub fn push(&mut self, u: usize, v: NodeId) {
        if self.len[u] == self.cap[u] {
            self.relocate(u, self.len[u] as usize + 1);
        }
        self.data[self.start[u] + self.len[u] as usize] = v;
        self.len[u] += 1;
        self.live += 1;
    }

    /// Inserts `v` into the sorted list `u`; returns `false` if present.
    pub fn insert_sorted(&mut self, u: usize, v: NodeId) -> bool {
        let row = self.slice(u);
        let pos = match self.side.of(u) {
            Some(bits) if has(bits, v) => return false,
            Some(_) => row.partition_point(|&x| x < v),
            None => match row.binary_search(&v) {
                Ok(_) => return false,
                Err(pos) => pos,
            },
        };
        if self.len[u] == self.cap[u] {
            self.relocate(u, self.len[u] as usize + 1);
        }
        let s = self.start[u];
        let l = self.len[u] as usize;
        self.data.copy_within(s + pos..s + l, s + pos + 1);
        self.data[s + pos] = v;
        self.len[u] += 1;
        self.live += 1;
        self.mark(u, [v]);
        true
    }

    /// Whether sorted list `u` contains `v`: one bit on a dense list, a
    /// binary search on a short one.
    #[inline]
    pub fn contains_sorted(&self, u: usize, v: NodeId) -> bool {
        match self.side.of(u) {
            Some(bits) => has(bits, v),
            None => self.slice(u).binary_search(&v).is_ok(),
        }
    }

    /// Removes `v` from the **sorted** list `u` (binary search + shift).
    /// Returns `false` if absent. O(log len + len) — the shift dominates,
    /// but the search (a bit, on a dense list) keeps the common miss case
    /// cheap. A list that falls to half the density rule gives its sidecar
    /// back.
    pub fn remove_sorted(&mut self, u: usize, v: NodeId) -> bool {
        if self.side.of(u).is_some_and(|bits| !has(bits, v)) {
            return false;
        }
        let Ok(pos) = self.slice(u).binary_search(&v) else {
            return false;
        };
        let s = self.start[u];
        let l = self.len[u] as usize;
        self.data.copy_within(s + pos + 1..s + l, s + pos);
        self.len[u] -= 1;
        self.live -= 1;
        if let Some(bits) = self.side.of_mut(u) {
            bits[v.index() / 64] &= !(1 << (v.0 % 64));
            if !self.side.dense(2 * (l - 1)) {
                self.side.release(u);
            }
        }
        true
    }

    /// Records `added`, entries just inserted into sorted list `u`, in the
    /// list's sidecar — or gives the list one, once it is past the density
    /// rule.
    #[inline]
    fn mark(&mut self, u: usize, added: impl IntoIterator<Item = NodeId>) {
        let l = self.len[u] as usize;
        if let Some(bits) = self.side.of_mut(u) {
            added.into_iter().for_each(|v| set(bits, v));
        } else if self.side.dense(l) {
            let row = &self.data[self.start[u]..][..l];
            self.side.attach(u, self.start.len(), row);
        }
    }

    /// Whether sorted list `u`'s sidecar agrees with it: a list past the
    /// density rule has one, and a sidecar has exactly the list's ids set.
    pub(crate) fn check_sidecar(&self, u: usize) -> Result<(), String> {
        let row = self.slice(u);
        let agrees = match self.side.of(u) {
            None => !self.side.dense(row.len()),
            Some(bits) => {
                bits.iter().map(|w| w.count_ones() as usize).sum::<usize>() == row.len()
                    && row.iter().all(|&v| has(bits, v))
            }
        };
        agrees.then_some(()).ok_or_else(|| {
            format!(
                "list {u} of {} entries disagrees with its sidecar",
                row.len()
            )
        })
    }

    /// Merges one round's half-edges into the **sorted** lists in place,
    /// visiting the lists in ascending order so every access after the
    /// scatter is sequential.
    ///
    /// `halves` yields `(list, other, slot)` in arrival order and is walked
    /// twice: the half-edges are counting-sorted by destination list
    /// (histogram, prefix sums, stable scatter into `scratch`), then each
    /// list's few candidates are sorted by `other` (stably, so the earliest
    /// arrival leads a run of duplicates and wins it), looked up once in
    /// the list, and the absent ones merged in back-to-front — capacity
    /// reserved once, one `copy_within` per tail segment between two
    /// insertion points. `on_new(list, other, slot)` fires for every entry
    /// inserted, in list order.
    ///
    /// [`SliceArena::merged`] is the other writer of the same merge: the
    /// scatter and the per-list lookup are shared, so both leave the same
    /// lists and fire the same `on_new` sequence.
    ///
    /// # Panics
    /// Panics if `halves` yields more than `u32::MAX` half-edges.
    pub fn merge_rows<I>(
        &mut self,
        scratch: &mut MergeScratch,
        halves: I,
        mut on_new: impl FnMut(usize, NodeId, u32),
    ) where
        I: Iterator<Item = (usize, NodeId, u32)> + Clone,
    {
        scratch.scatter(self.lists(), halves);
        let MergeScratch { ends, cand } = scratch;
        let mut lo = 0;
        for (u, &hi) in ends.iter().enumerate() {
            let hi = hi as usize;
            if lo < hi {
                self.merge_row(u, &mut cand[lo..hi], &mut on_new);
            }
            lo = hi;
        }
    }

    /// The rebuild writer of [`SliceArena::merge_rows`]: the lists with
    /// one round's half-edges merged in, written into a new arena in one
    /// pass, `self` left as it was. Same `halves`, same `on_new` sequence
    /// and the same lists as the in-place merge; the layout is the one a
    /// compaction writes — dense, in list order, `compacted(len)` slots
    /// per list with the reserve zeroed, a sidecar on each list past the
    /// density rule — and the slab is allocated at exactly that size.
    ///
    /// This is how a list arena still shared with a reader takes a round:
    /// one streaming pass over its lists, where a copy followed by the
    /// in-place merge makes three (the copy, the relocations, the
    /// compactions they trigger) and keeps the copy's dead space.
    ///
    /// # Panics
    /// Panics if `halves` yields more than `u32::MAX` half-edges.
    pub fn merged<I>(
        &self,
        scratch: &mut MergeScratch,
        halves: I,
        mut on_new: impl FnMut(usize, NodeId, u32),
    ) -> SliceArena
    where
        I: Iterator<Item = (usize, NodeId, u32)> + Clone,
    {
        scratch.scatter(self.lists(), halves);
        let MergeScratch { ends, cand } = scratch;
        // Pass one: each list's fresh entries, into `cand[lo..][..fresh]`,
        // and so every new length.
        let (mut len, mut added, mut lo) = (self.len.clone(), 0, 0);
        for (u, &hi) in ends.iter().enumerate() {
            let hi = hi as usize;
            if lo < hi {
                let fresh = self.fresh_in(u, &mut cand[lo..hi], &mut on_new);
                len[u] += fresh as u32;
                added += fresh;
            }
            lo = hi;
        }
        // Pass two: every list copied into its place, its fresh entries
        // taken in between at their insertion points.
        let cap: Vec<u32> = len.iter().map(|&l| compacted(l as usize) as u32).collect();
        let (mut start, mut total) = (Vec::with_capacity(cap.len()), 0);
        for &c in &cap {
            start.push(total);
            total += c as usize;
        }
        let mut out = SliceArena {
            data: Vec::with_capacity(total),
            start,
            len,
            cap,
            reserved: total,
            live: self.live + added,
            home_end: total,
            side: Sidecars {
                universe: self.side.universe,
                words: self.side.words,
                ..Sidecars::default()
            },
        };
        let mut lo = 0;
        for (u, &hi) in ends.iter().enumerate() {
            let (row, mut from) = (self.slice(u), 0);
            let fresh = (out.len[u] - self.len[u]) as usize;
            for &(other, at) in &cand[lo..lo + fresh] {
                out.data.extend_from_slice(&row[from..at as usize]);
                out.data.push(other);
                from = at as usize;
            }
            out.data.extend_from_slice(&row[from..]);
            out.data
                .resize(out.start[u] + out.cap[u] as usize, NodeId(0));
            out.mark(u, []);
            lo = hi as usize;
        }
        out
    }

    /// Merges list `u`'s candidates (arrival order) into the sorted list,
    /// in place.
    fn merge_row(
        &mut self,
        u: usize,
        cand: &mut [(NodeId, u32)],
        on_new: &mut impl FnMut(usize, NodeId, u32),
    ) {
        let fresh = self.fresh_in(u, cand, on_new);
        if fresh == 0 {
            return;
        }
        let l = self.len[u] as usize;
        if l + fresh > self.cap[u] as usize {
            self.relocate(u, l + fresh);
        }
        // Back to front: the tail behind the j-th insertion point moves
        // j + 1 slots right, in one copy per segment.
        let s = self.start[u];
        let mut tail_end = l;
        for (j, &(other, at)) in cand[..fresh].iter().enumerate().rev() {
            let at = at as usize;
            self.data.copy_within(s + at..s + tail_end, s + at + j + 1);
            self.data[s + at + j] = other;
            tail_end = at;
        }
        self.len[u] += fresh as u32;
        self.live += fresh;
        self.mark(u, cand[..fresh].iter().map(|&(other, _)| other));
    }

    /// The per-list step both writers share: sorts list `u`'s candidates
    /// (arrival order) by id, stably, and looks every distinct one up,
    /// left to right. The absent ones are compacted to `cand[..fresh]`,
    /// ascending, with the slot (handed to `on_new`, which fires for each)
    /// overwritten by the insertion point in the list. On a dense list the
    /// sidecar answers the lookup, and only an absent candidate pays the
    /// search for its insertion point. Returns `fresh`.
    #[inline(always)]
    fn fresh_in(
        &self,
        u: usize,
        cand: &mut [(NodeId, u32)],
        on_new: &mut impl FnMut(usize, NodeId, u32),
    ) -> usize {
        cand.sort_by_key(|&(other, _)| other);
        let (row, bits) = (self.slice(u), self.side.of(u));
        let (mut fresh, mut from, mut last) = (0, 0, None);
        for i in 0..cand.len() {
            let (other, slot) = cand[i];
            if last == Some(other) {
                continue;
            }
            last = Some(other);
            from += match bits {
                Some(bits) if has(bits, other) => continue,
                Some(_) => row[from..].partition_point(|&x| x < other),
                None => match row[from..].binary_search(&other) {
                    Ok(at) => {
                        from += at + 1;
                        continue;
                    }
                    Err(at) => at,
                },
            };
            on_new(u, other, slot);
            cand[fresh] = (other, from as u32);
            fresh += 1;
        }
        fresh
    }

    /// Tombstones list `u`: drops every entry and releases the row's
    /// reserved capacity into dead space, then runs the usual epoch
    /// compaction check. This is the arena half of a membership *leave* —
    /// the abandoned region is reclaimed by the same `maybe_compact` pass
    /// that reclaims relocation leftovers, so repeated leave/join cycles
    /// cannot grow the slab beyond the compaction bound. A later re-join
    /// reuses the row through the normal growth path (after a compaction
    /// the row keeps one reserved slot, so the first re-learned contact
    /// lands in reused space before any slab growth). Returns the number
    /// of entries dropped. The row's sidecar, if any, is zeroed and freed
    /// for the next list that goes dense.
    pub fn clear(&mut self, u: usize) -> usize {
        let dropped = self.len[u] as usize;
        self.live -= dropped;
        self.reserved -= self.cap[u] as usize;
        self.len[u] = 0;
        self.cap[u] = 0;
        self.side.release(u);
        // `start[u]` still points at the abandoned region; with cap == 0 no
        // write can land there, and the next compaction rewrites it.
        self.maybe_compact(u, 0);
        dropped
    }

    /// Appends a new list holding `entries` with `cap` reserved slots, at
    /// the end of the slab — the worker-bootstrap path, which rebuilds a
    /// shipped segment row by row, densely (no dead space).
    ///
    /// The capacity is the source row's, not one the insert path would
    /// derive: rebuilding through `insert_sorted` would re-run the growth
    /// schedule and hand a tombstone (`cap == 0`) a fresh reserve, so the
    /// first relocation or compaction would fire on a different mutation
    /// than in the source process. Contents would still agree (compaction
    /// is content-transparent), but bootstrap wants identical row
    /// bookkeeping, so rows are rebuilt structurally. `entries` is a sorted
    /// list: one past the density rule gets its sidecar here.
    ///
    /// # Panics
    /// Panics if `entries` is longer than `cap`, or if it is dense and
    /// holds an id outside the universe.
    pub fn push_list(&mut self, entries: &[NodeId], cap: u32) {
        assert!(entries.len() <= cap as usize, "list longer than its cap");
        let start = self.data.len();
        self.start.push(start);
        self.data.extend_from_slice(entries);
        self.data.resize(start + cap as usize, NodeId(0));
        self.len.push(entries.len() as u32);
        self.cap.push(cap);
        self.reserved += cap as usize;
        self.live += entries.len();
        // Bootstrap pushes rows in node order, densely: while nothing has
        // relocated past them they extend the node-ordered region.
        if self.home_end == start {
            self.home_end = self.data.len();
        }
        if !self.side.slot.is_empty() {
            self.side.slot.push(SPARSE);
        }
        self.mark(self.lists() - 1, []);
    }

    /// Moves list `u` to the end of the slab with its capacity grown ~1.5×
    /// at a time until it holds `need` entries, then reclaims the slab if
    /// dead space outweighs half the reserved space. (1.5× growth + the
    /// earlier compaction trigger bound the slab at ~2.25× the live
    /// entries, vs ~4× for classic doubling — constant factors are the
    /// whole game at n = 2^20. A compaction adds only the entries of the
    /// tail rows it spills on top of that: it peaks at `max(L, T) +
    /// overlap` entries, where a copy into a fresh slab held `L + T`.)
    #[cold]
    fn relocate(&mut self, u: usize, need: usize) {
        let cap = self.cap[u] as usize;
        let mut new_cap = cap;
        while new_cap < need {
            new_cap = grown(new_cap);
        }
        let s = self.start[u];
        let l = self.len[u] as usize;
        let new_start = self.data.len();
        // Append the live entries, then zero-fill the fresh reserve.
        self.data.extend_from_within(s..s + l);
        self.data.resize(new_start + new_cap, NodeId(0));
        self.reserved += new_cap - cap;
        self.start[u] = new_start;
        self.cap[u] = new_cap as u32;
        self.maybe_compact(u, need);
    }

    /// Epoch compaction: once abandoned regions exceed half the reserved
    /// ones, rewrite the slab densely in node order, in place
    /// ([`SliceArena::compact`]). A compaction only happens after
    /// `reserved/2` entries of fresh dead space accumulated, so the cost is
    /// amortized O(1) per stored entry. List `pending` comes out with room
    /// for `need` entries.
    fn maybe_compact(&mut self, pending: usize, need: usize) {
        if self.data.len() <= self.reserved + self.reserved / 2 + 1024 {
            return;
        }
        #[cfg(test)]
        let before = self.clone();
        let _peak = self.compact(pending, need);
        #[cfg(test)]
        tests::check_pass(&before, pending, need, _peak, self);
    }

    /// Rewrites the slab densely in node order inside its own allocation,
    /// and returns the greatest number of entries the pass held, slab and
    /// spill. Row `u` gets `compacted(len[u])` slots (`pending` at least
    /// `need`), packed from 0 in node order with zeroed reserves; `T`,
    /// their total, is the new slab length — the layout a copy into a
    /// fresh slab writes.
    ///
    /// Home rows keep their relative order, so they slide like one
    /// `memmove`: a home row moving left (or staying) *leads a group* and
    /// is placed at once, front to back; the rows after it up to the next
    /// leader — home rows moving right, tail rows, empty rows — are placed
    /// back to front when that leader is reached, each with its reserve
    /// zeroed. So when a group is placed, the slots written so far are
    /// those below its leader's entries, all below `home_end`, where no
    /// tail row starts, and those of the group's later rows. A tail row
    /// whose entries overlap the slots of the rows after it (and start
    /// below `T`: nothing is written past it) is first appended past the
    /// slab end, into a spill buffer — separate, so that the slab is never
    /// reallocated, and copied whole, to make room. Two passes over the
    /// rows: the new caps and `T`, then placement.
    ///
    /// The peak is `max(L, T) + overlap`, `L` the old slab length and
    /// `overlap` the spilled entries, against `L + T` for a copy. The
    /// allocation is shrunk back to the old reserved total, the capacity a
    /// fresh slab would have had: a published snapshot holding the segment
    /// keeps no dead pages, and the next growth does not have to
    /// reallocate.
    fn compact(&mut self, pending: usize, need: usize) -> usize {
        let (home, old_reserved) = (self.home_end, self.reserved);
        let mut total = 0;
        for (u, (cap, &len)) in self.cap.iter_mut().zip(&self.len).enumerate() {
            // Keep a small growth reserve so a compaction is not immediately
            // followed by a relocation storm of every still-growing node —
            // and **never less than one free slot**: `insert`/`push` check
            // capacity once, relocate, and then write, so a compaction
            // triggered by that relocation must preserve the slot the
            // pending write is about to use. A batch merge
            // ([`SliceArena::merge_rows`]) has several writes pending on
            // the list it relocated, hence `need`.
            let mut c = compacted(len as usize);
            if u == pending {
                c = c.max(need);
            }
            *cap = c as u32;
            total += c;
        }
        if self.data.len() < total {
            self.data.resize(total, NodeId(0));
        }
        let (spill_at, mut spill) = (self.data.len(), Vec::new());
        let (mut group, mut at) = (0, 0);
        for u in 0..self.start.len() {
            let (s, l, c) = (self.start[u], self.len[u] as usize, self.cap[u] as usize);
            if s < home {
                if l > 0 && at <= s {
                    self.place(group..u, at, &spill, spill_at);
                    if at < s {
                        self.data.copy_within(s..s + l, at);
                        self.start[u] = at;
                    }
                    group = u;
                }
            } else if l > 0 && s + l > at + c && s < total {
                self.start[u] = spill_at + spill.len();
                spill.extend_from_slice(&self.data[s..s + l]);
            }
            at += c;
        }
        self.place(group..self.start.len(), at, &spill, spill_at);
        let peak = spill_at + spill.len();
        self.data.truncate(total);
        self.data.shrink_to(old_reserved);
        self.reserved = total;
        self.home_end = total;
        peak
    }

    /// Places `rows` back to front so the last one ends at `end`, zeroing
    /// each reserve ([`SliceArena::compact`]'s placement). A row starting
    /// at or past `spill_at`, the slab end, is read from `spill`.
    fn place(&mut self, rows: Range<usize>, mut end: usize, spill: &[NodeId], spill_at: usize) {
        for u in rows.rev() {
            let (s, l, c) = (self.start[u], self.len[u] as usize, self.cap[u] as usize);
            end -= c;
            if s >= spill_at {
                self.data[end..end + l].copy_from_slice(&spill[s - spill_at..][..l]);
            } else if s != end {
                self.data.copy_within(s..s + l, end);
            }
            self.start[u] = end;
            self.data[end + l..end + c].fill(NodeId(0));
        }
    }

    /// The largest capacity the arena gives a list that never holds more
    /// than `max_len` entries. Capacities change in two places only. A
    /// relocation steps [`grown`] from a capacity below its `need ≤
    /// max_len`, so its last step starts at most at `max_len - 1`. A
    /// compaction reserves `max(compacted(len), need)`, and both are at
    /// most `compacted(max_len)`. (Both steps are monotone.)
    pub(crate) fn cap_bound(max_len: usize) -> usize {
        grown(max_len.saturating_sub(1)).max(compacted(max_len))
    }
}

/// One step of a relocating list's growth schedule: ~1.5×, at least one
/// slot, at least four. (Saturating, so [`SliceArena::cap_bound`] of any
/// length a peer claims is defined.)
fn grown(cap: usize) -> usize {
    cap.saturating_add(cap / 2)
        .max(cap.saturating_add(1))
        .max(4)
}

/// The capacity a compaction reserves for a list of `len` entries: a small
/// growth reserve, and never less than one free slot.
fn compacted(len: usize) -> usize {
    len.saturating_add(len / 8).max(len.saturating_add(1))
}

/// An undirected graph with **sorted** arena-backed adjacency: the graph
/// every undirected process in the workspace runs on.
///
/// `O(m + n)` memory, edge membership in O(1) on a row longer than `n/32`
/// and O(log deg) below it ([dense rows](crate::arena#dense-rows)),
/// O(1) uniform neighbor sampling, and a batch edge-application entry point
/// ([`ArenaGraph::apply_batch`]) that merges a whole round of proposals in
/// one row-ordered pass. Neighbor lists are kept in ascending id order —
/// a canonical layout, so the final graph is independent of the order in
/// which a round's edges are applied.
///
/// ```
/// use gossip_graph::{ArenaGraph, NodeId};
/// let mut g = ArenaGraph::new(4);
/// assert!(g.add_edge(NodeId(0), NodeId(2)));
/// assert!(g.add_edge(NodeId(0), NodeId(1)));
/// assert!(!g.add_edge(NodeId(2), NodeId(0)));
/// assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ArenaGraph {
    adj: SliceArena,
    m: u64,
    scratch: BatchScratch,
}

/// [`ArenaGraph::apply_batch`]'s round buffers, kept by the graph so
/// steady-state rounds allocate nothing. They hold nothing between calls,
/// so a clone starts with empty ones and `clone` pays nothing for them.
#[derive(Debug, Default)]
struct BatchScratch {
    merge: MergeScratch,
    /// Proposals that are neither self-loops nor round-start edges.
    fresh: BitSet,
    /// Proposals that added their edge first.
    won: BitSet,
}

impl Clone for BatchScratch {
    fn clone(&self) -> Self {
        BatchScratch::default()
    }
}

impl ArenaGraph {
    /// Creates an empty graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        ArenaGraph {
            adj: SliceArena::new(n, n),
            m: 0,
            scratch: BatchScratch::default(),
        }
    }

    /// Builds a graph from an edge list (duplicates ignored, self-loop
    /// requests are no-ops, like the engine's degenerate draws), in one
    /// row-ordered merge ([`ArenaGraph::apply_batch`]): each row is
    /// reserved once, not regrown edge by edge.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let edges: Vec<_> = edges
            .into_iter()
            .map(|(a, b)| ((), NodeId(a), NodeId(b)))
            .collect();
        let mut g = ArenaGraph::new(n);
        g.apply_batch(edges.iter().copied(), |_, _, _| {});
        // Buffers sized for the whole edge list, not for a round.
        g.scratch = BatchScratch::default();
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.lists()
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Number of edges in the complete graph on `n` nodes.
    #[inline]
    pub fn complete_m(&self) -> u64 {
        let n = self.n() as u64;
        n * n.saturating_sub(1) / 2
    }

    /// Whether the graph is complete (vacuously true for `n <= 1`).
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.m == self.complete_m()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj.len(u.index())
    }

    /// The degree sequence, indexed by node.
    pub fn degrees(&self) -> Vec<usize> {
        self.nodes().map(|u| self.degree(u)).collect()
    }

    /// Minimum degree over all nodes (`0` for the graph on 0 nodes).
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).min().unwrap_or(0)
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Mean degree (`2m / n`; `0` for the graph on 0 nodes).
    pub fn mean_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m as f64 / self.n() as f64
        }
    }

    /// Neighbors of `u`, in ascending id order.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.adj.slice(u.index())
    }

    /// Edge membership test (one bit on a dense row, else a binary search).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj.contains_sorted(u.index(), v)
    }

    /// Adds edge `(u, v)`; returns `true` if new. Self-loop requests are
    /// no-ops returning `false`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        if self.adj.insert_sorted(u.index(), v) {
            let ins = self.adj.insert_sorted(v.index(), u);
            debug_assert!(ins, "asymmetric adjacency");
            self.m += 1;
            true
        } else {
            false
        }
    }

    /// Removes edge `(u, v)`; returns `true` if it existed. O(deg).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.adj.remove_sorted(u.index(), v) {
            return false;
        }
        let removed = self.adj.remove_sorted(v.index(), u);
        debug_assert!(removed, "asymmetric adjacency");
        self.m -= 1;
        true
    }

    /// Applies one round's proposals in one row-ordered merge
    /// ([`SliceArena::merge_rows`]).
    ///
    /// `proposed` yields every node's `(tag, a, b)` proposals for the
    /// round, in proposal order, and is walked once per step, never
    /// copied. First, self-loops and edges the round-start graph already
    /// holds are dropped (one bit per slot) — on a near-complete graph
    /// that is most of them, and none of those reaches the merge. Then
    /// both half-edges of each survivor go to the merge; both orientations
    /// of an edge land in its smaller endpoint's row, where the earliest
    /// slot wins, so one bit per winning slot is set there. Last, the
    /// proposals are replayed against those bits: `on_new(tag, a, b)`
    /// fires once per genuinely new edge, first proposer credited, in
    /// proposal order — what the one-at-a-time path does. Returns
    /// `(proposed_count, added_count)`.
    pub fn apply_batch<T, I>(
        &mut self,
        proposed: I,
        mut on_new: impl FnMut(T, NodeId, NodeId),
    ) -> (u64, u64)
    where
        I: Iterator<Item = (T, NodeId, NodeId)> + Clone,
    {
        let count = proposed.clone().count();
        assert!(
            u32::try_from(count).is_ok(),
            "a round holds at most u32::MAX proposals, got {count}"
        );
        let BatchScratch { merge, fresh, won } = &mut self.scratch;
        fresh.clear();
        fresh.grow(count);
        for (slot, (_, a, b)) in proposed.clone().enumerate() {
            if a != b && !self.adj.contains_sorted(a.index(), b) {
                fresh.insert(slot);
            }
        }
        let halves = proposed
            .clone()
            .enumerate()
            .filter(|&(slot, _)| fresh.contains(slot))
            .flat_map(|(slot, (_, a, b))| {
                [(a.index(), b, slot as u32), (b.index(), a, slot as u32)]
            });
        won.clear();
        won.grow(count);
        self.adj.merge_rows(merge, halves, |u, other, slot| {
            if u < other.index() {
                won.insert(slot as usize);
            }
        });
        for (slot, (tag, a, b)) in proposed.enumerate() {
            if won.contains(slot) {
                on_new(tag, a, b);
            }
        }
        let added = won.count() as u64;
        self.m += added;
        (count as u64, added)
    }

    /// Removes member `u` from the edge set: every incident edge is
    /// deleted (the mirror entries are dropped from the neighbors' sorted
    /// rows) and `u`'s row is tombstoned through
    /// [`SliceArena::clear`] so the arena's epoch compaction reclaims its
    /// storage. Returns the number of edges removed. The node id stays
    /// addressable — a later [`ArenaGraph::admit_member`] re-bootstraps it
    /// into the graph, reusing the reclaimed slot.
    pub fn remove_member(&mut self, u: NodeId) -> u64 {
        // Copy the row out: the mirror removals below mutate the arena.
        let contacts: Vec<NodeId> = self.neighbors(u).to_vec();
        for &v in &contacts {
            let removed = self.adj.remove_sorted(v.index(), u);
            debug_assert!(removed, "asymmetric adjacency at {v:?}->{u:?}");
        }
        let dropped = self.adj.clear(u.index()) as u64;
        debug_assert_eq!(dropped, contacts.len() as u64);
        self.m -= dropped;
        dropped
    }

    /// (Re-)admits member `u` with bootstrap edges to `contacts`
    /// (duplicates and self-loops are no-ops, exactly as
    /// [`ArenaGraph::add_edge`]). Returns the number of edges added.
    pub fn admit_member(&mut self, u: NodeId, contacts: &[NodeId]) -> u64 {
        contacts.iter().map(|&v| self.add_edge(u, v) as u64).sum()
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n() as u32).map(NodeId)
    }

    /// Iterates over all edges in canonical form.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge::new(u, v))
        })
    }

    /// Extracts the subgraph induced by `nodes`, relabelling nodes to
    /// `0..nodes.len()` in the order given. Returns the subgraph and the
    /// mapping from new ids back to original ids.
    ///
    /// # Panics
    /// Panics if `nodes` contains duplicates.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (ArenaGraph, Vec<NodeId>) {
        let mut new_id = vec![u32::MAX; self.n()];
        for (i, &u) in nodes.iter().enumerate() {
            assert_eq!(new_id[u.index()], u32::MAX, "duplicate node {u:?}");
            new_id[u.index()] = i as u32;
        }
        let mut sub = ArenaGraph::new(nodes.len());
        for (i, &u) in nodes.iter().enumerate() {
            for &v in self.neighbors(u) {
                let nv = new_id[v.index()];
                if nv != u32::MAX && nv > i as u32 {
                    sub.add_edge(NodeId(i as u32), NodeId(nv));
                }
            }
        }
        (sub, nodes.to_vec())
    }

    /// Whether `other` has the same node count and edge set (rows are
    /// canonical, so that is row-for-row equality).
    pub fn same_edges(&self, other: &ArenaGraph) -> bool {
        self.n() == other.n()
            && self
                .nodes()
                .all(|u| self.neighbors(u) == other.neighbors(u))
    }

    /// Bytes held by the adjacency storage (deterministic, length-based —
    /// see [`SliceArena::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.adj.memory_bytes() + std::mem::size_of::<u64>()
    }

    /// Debug-grade structural validation: sorted rows, each dense row's
    /// sidecar set exactly at its ids, symmetry, no self-loops, edge count
    /// consistency.
    pub fn validate(&self) -> Result<(), String> {
        let mut half_edges = 0u64;
        for u in self.nodes() {
            let row = self.neighbors(u);
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("row of {u:?} not strictly sorted"));
            }
            self.adj.check_sidecar(u.index())?;
            for &v in row {
                if u == v {
                    return Err(format!("self-loop at {u:?}"));
                }
                if !self.has_edge(v, u) {
                    return Err(format!("asymmetric edge {u:?}->{v:?}"));
                }
                half_edges += 1;
            }
        }
        if half_edges != 2 * self.m {
            return Err(format!(
                "edge count mismatch: m={} but half-edges={half_edges}",
                self.m
            ));
        }
        Ok(())
    }
}

impl UniformNeighbors for ArenaGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.n()
    }
    #[inline]
    fn neighbor_row(&self, u: NodeId) -> &[NodeId] {
        self.neighbors(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{SegSnapshotAssembler, ShardSeg};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Compaction passes this thread has checked against the oracle.
        static PASSES: Cell<usize> = const { Cell::new(0) };
    }

    /// The compaction the in-place pass replaced, kept as its oracle: copy
    /// every row, in node order, into a fresh slab.
    fn copy_compact(a: &mut SliceArena, pending: usize, need: usize) {
        let mut packed: Vec<NodeId> = Vec::with_capacity(a.reserved);
        for u in 0..a.start.len() {
            let s = a.start[u];
            let l = a.len[u] as usize;
            a.start[u] = packed.len();
            packed.extend_from_slice(&a.data[s..s + l]);
            let mut cap = compacted(l);
            if u == pending {
                cap = cap.max(need);
            }
            packed.resize(a.start[u] + cap, NodeId(0));
            a.cap[u] = cap as u32;
        }
        a.reserved = packed.len();
        a.data = packed;
    }

    /// Every compaction a test build runs is checked here: `after`, the
    /// in-place pass over `before`, must equal the copy over it, and the
    /// slab may never have been longer than `max(L, T) + overlap` — the
    /// old length or the packed total, plus the tail rows starting below
    /// the packed total.
    pub(super) fn check_pass(
        before: &SliceArena,
        pending: usize,
        need: usize,
        peak: usize,
        after: &SliceArena,
    ) {
        let mut want = before.clone();
        copy_compact(&mut want, pending, need);
        assert_eq!(after.start, want.start, "start");
        assert_eq!(after.len, want.len, "len");
        assert_eq!(after.cap, want.cap, "cap");
        assert_eq!(after.reserved, want.reserved, "reserved");
        assert_eq!(after.live, want.live, "live");
        assert!(after.data == want.data, "data differs from the copy's");
        assert!(after.side == before.side, "a compaction touched a sidecar");
        assert_eq!(after.data.len(), after.reserved);
        assert_eq!(after.home_end, after.reserved);
        let total = want.reserved;
        let overlap: usize = (0..before.lists())
            .filter(|&u| (before.home_end..total).contains(&before.start[u]))
            .map(|u| before.len(u))
            .sum();
        let bound = before.data.len().max(total) + overlap;
        assert!(peak <= bound, "slab reached {peak}, bound {bound}");
        assert_eq!(
            after.data.capacity(),
            before.reserved.max(total),
            "the allocation a fresh slab would have had"
        );
        PASSES.with(|p| p.set(p.get() + 1));
    }

    fn passes() -> usize {
        PASSES.with(Cell::get)
    }

    /// Appends a random sorted row of up to a dozen entries in `0..400`,
    /// with 0–2 spare slots, through the bootstrap path. (At the oracle
    /// test's universe of 1,000, a row of more than 31 goes dense.)
    fn push_random_row(a: &mut SliceArena, model: &mut Vec<BTreeSet<u32>>, rng: &mut SmallRng) {
        let row: BTreeSet<u32> = (0..rng.random_range(0..12))
            .map(|_| rng.random_range(0..400))
            .collect();
        let entries: Vec<NodeId> = row.iter().map(|&v| NodeId(v)).collect();
        a.push_list(
            &entries,
            (entries.len() + rng.random_range(0..3usize)) as u32,
        );
        model.push(row);
    }

    #[test]
    fn in_place_compaction_matches_the_copy_oracle() {
        // Random mutation sequences over every path that reaches a
        // compaction — relocations with one pending write (`insert_sorted`)
        // and several (`merge_rows`), tombstones (`clear`), and forced
        // passes over padded dead space — on arenas started empty and
        // built through `push_list`, which also appends rows mid-run, after
        // relocations (a tail row) or right after a compaction (a home
        // row). Ids are below 1,000, the arenas' universe, so rows past 31
        // entries carry sidecars through the passes. `check_pass` compares
        // every pass with the copy (sidecars untouched); this test makes
        // sure each trigger fired, that sidecars existed, and that the rows
        // and their sidecars match a model.
        let (mut relocating, mut clearing, mut forced, mut dense) = (0, 0, 0, 0);
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut a, mut model) = if seed % 2 == 0 {
                (SliceArena::new(40, 1_000), vec![BTreeSet::new(); 40])
            } else {
                (SliceArena::new(0, 1_000), Vec::new())
            };
            while a.lists() < 40 {
                push_random_row(&mut a, &mut model, &mut rng);
            }
            let mut scratch = MergeScratch::default();
            for step in 0..5_000 {
                let n = a.lists();
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..1_000u32);
                let seen = passes();
                match rng.random_range(0..200) {
                    0..=119 => {
                        assert_eq!(a.insert_sorted(u, NodeId(v)), model[u].insert(v));
                        relocating += passes() - seen;
                    }
                    120..=159 => {
                        // Candidates for up to four neighbouring rows, so a
                        // relocation has several writes pending.
                        let rows = u..n.min(u + 4);
                        let halves: Vec<(usize, NodeId, u32)> = (0..rng.random_range(1..24u32))
                            .map(|slot| {
                                let w = rng.random_range(rows.clone());
                                (w, NodeId(rng.random_range(0..1_000)), slot)
                            })
                            .collect();
                        a.merge_rows(&mut scratch, halves.iter().copied(), |_, _, _| {});
                        for &(w, x, _) in &halves {
                            model[w].insert(x.0);
                        }
                        relocating += passes() - seen;
                    }
                    160..=179 => assert_eq!(a.remove_sorted(u, NodeId(v)), model[u].remove(&v)),
                    180..=189 => {
                        assert_eq!(a.clear(u), model[u].len(), "step {step}");
                        model[u].clear();
                        clearing += passes() - seen;
                    }
                    190..=198 => push_random_row(&mut a, &mut model, &mut rng),
                    _ => {
                        let dead = a.reserved + a.reserved / 2 + 1025;
                        if a.data.len() < dead {
                            a.data.resize(dead, NodeId(0));
                        }
                        let need = a.len(u) + rng.random_range(0..4usize);
                        a.maybe_compact(u, need);
                        assert!(a.cap(u) as usize >= need, "step {step}: pending room");
                        forced += passes() - seen;
                    }
                }
            }
            for (u, row) in model.iter().enumerate() {
                let got = a.slice(u).iter().map(|x| x.0);
                assert!(got.eq(row.iter().copied()), "seed {seed}: row {u}");
                a.check_sidecar(u).unwrap();
                dense += usize::from(a.side.of(u).is_some());
            }
            let live = model.iter().map(BTreeSet::len).sum::<usize>();
            assert_eq!(a.total_len(), live, "seed {seed}");
        }
        assert!(
            relocating > 0 && clearing > 0 && forced > 0 && dense > 0,
            "passes: {relocating} on relocation, {clearing} on clear, {forced} forced; \
             {dense} dense rows"
        );
    }

    #[test]
    fn slice_arena_push_and_slices() {
        let mut a = SliceArena::new(3, 8);
        a.push(0, NodeId(5));
        a.push(2, NodeId(1));
        a.push(0, NodeId(3));
        assert_eq!(a.slice(0), &[NodeId(5), NodeId(3)]);
        assert_eq!(a.slice(1), &[] as &[NodeId]);
        assert_eq!(a.slice(2), &[NodeId(1)]);
        assert_eq!(a.total_len(), 3);
    }

    #[test]
    fn slice_arena_sorted_insert_dedups() {
        // Ids below 8: every non-empty row is past the density rule, so
        // each lookup here reads the sidecar.
        let mut a = SliceArena::new(2, 8);
        assert!(a.insert_sorted(0, NodeId(7)));
        assert!(a.insert_sorted(0, NodeId(2)));
        assert!(a.insert_sorted(0, NodeId(4)));
        assert!(!a.insert_sorted(0, NodeId(7)));
        assert_eq!(a.slice(0), &[NodeId(2), NodeId(4), NodeId(7)]);
        assert!(a.contains_sorted(0, NodeId(4)));
        assert!(!a.contains_sorted(0, NodeId(5)));
    }

    #[test]
    fn total_len_is_cached() {
        // The counter must track every mutation path — push, sorted insert
        // (including rejected duplicates), remove (including misses),
        // relocation, and compaction — so stat reads never pay a recount.
        let n = 48;
        let mut a = SliceArena::new(n, 500);
        let mut rng = SmallRng::seed_from_u64(17);
        let recount = |a: &SliceArena| (0..n).map(|u| a.len(u)).sum::<usize>();
        for step in 0..30_000 {
            let u = rng.random_range(0..n);
            let v = NodeId(rng.random_range(0..500u32));
            match step % 3 {
                0 => a.push(u, v),
                1 => {
                    a.insert_sorted(u, v);
                }
                _ => {
                    a.remove_sorted(u, v);
                }
            }
            if step % 4096 == 0 {
                assert_eq!(a.total_len(), recount(&a), "step {step}");
            }
        }
        assert_eq!(a.total_len(), recount(&a));
    }

    #[test]
    fn slice_arena_growth_relocates_and_compacts() {
        // Interleaved growth across many lists forces relocations and at
        // least one compaction; contents must survive both.
        let n = 64;
        let mut a = SliceArena::new(n, 1000);
        let mut model: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..20_000 {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..1000u32);
            assert_eq!(a.insert_sorted(u, NodeId(v)), model[u].insert(v));
        }
        for (u, set) in model.iter().enumerate() {
            let got: Vec<u32> = a.slice(u).iter().map(|x| x.0).collect();
            let want: Vec<u32> = set.iter().copied().collect();
            assert_eq!(got, want, "list {u}");
        }
        // Dead space is bounded: compaction keeps the slab within a small
        // constant of the reserved total.
        assert!(a.data.len() <= a.reserved + a.reserved / 2 + 1024);
    }

    #[test]
    fn compaction_during_relocation_preserves_pending_slot() {
        // Regression: a compaction triggered *inside* relocate used to
        // shrink small lists back to cap == len, so the insert that caused
        // the relocation wrote into the next node's region. Many tiny
        // lists + steady growth hits that path constantly; the graph-level
        // invariants catch any cross-row corruption.
        let n = 300;
        let mut g = ArenaGraph::new(n);
        let mut rng = SmallRng::seed_from_u64(1234);
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        for _ in 0..6_000 {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            if a == b {
                continue;
            }
            let canon = (a.min(b), a.max(b));
            assert_eq!(g.add_edge(NodeId(a), NodeId(b)), model.insert(canon));
        }
        assert_eq!(g.m(), model.len() as u64);
        g.validate().unwrap();
    }

    #[test]
    fn compaction_during_batch_relocation_preserves_every_pending_slot() {
        // The batch form of the regression above: a merge that relocates a
        // row has several writes pending on it, and a compaction triggered
        // inside that relocation must leave room for all of them — with
        // one free slot the rest of the batch lands in the next row. Many
        // tiny rows taking 2–5 entries at a time keep relocations racing
        // the compaction trigger.
        let n = 400;
        let mut g = ArenaGraph::new(n);
        let mut rng = SmallRng::seed_from_u64(2222);
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut compactions = 0;
        for batch in 0..300 {
            let mut proposals = Vec::new();
            for _ in 0..40 {
                let a = rng.random_range(0..n as u32);
                for _ in 0..rng.random_range(2..6usize) {
                    proposals.push(((), NodeId(a), NodeId(rng.random_range(0..n as u32))));
                }
            }
            let slab = g.adj.data.len();
            let (_, added) = g.apply_batch(proposals.iter().copied(), |_, _, _| {});
            compactions += usize::from(g.adj.data.len() < slab);
            let before = model.len();
            model.extend(
                proposals
                    .iter()
                    .filter(|(_, a, b)| a != b)
                    .map(|&(_, a, b)| (a.0.min(b.0), a.0.max(b.0))),
            );
            assert_eq!(added as usize, model.len() - before, "batch {batch}");
            g.validate()
                .unwrap_or_else(|e| panic!("batch {batch}: {e}"));
        }
        assert!(compactions > 0, "no batch straddled a compaction");
        assert_eq!(g.m(), model.len() as u64);
    }

    #[test]
    fn merge_rows_inserts_into_a_dense_row_in_place() {
        // 1–8 inserts at the front, the middle and the back of a 500-entry
        // row, in one merge each; the rows on either side hold sentinels
        // that a misplaced tail copy would overwrite.
        let even = |i: u32| NodeId(1000 + 2 * i);
        for k in 1..=8u32 {
            let front: Vec<NodeId> = (0..k).map(NodeId).collect();
            let middle: Vec<NodeId> = (0..k).map(|i| NodeId(1000 + 2 * (240 + i) + 1)).collect();
            let back: Vec<NodeId> = (0..k).map(|i| NodeId(5000 + i)).collect();
            let spread: Vec<NodeId> = (0..k).map(|i| NodeId(1000 + 120 * i + 1)).collect();
            for fresh in [front, middle, back, spread] {
                let mut a = SliceArena::new(3, 6_000);
                for u in 0..3 {
                    for i in 0..500 {
                        a.push(u, even(i));
                    }
                }
                // Arrival order reversed, every candidate twice, and two
                // the row already holds.
                let halves: Vec<(usize, NodeId, u32)> = fresh
                    .iter()
                    .rev()
                    .chain(&fresh)
                    .chain(&[even(0), even(499)])
                    .zip(0u32..)
                    .map(|(&v, slot)| (1, v, slot))
                    .collect();
                let mut fired = Vec::new();
                a.merge_rows(
                    &mut MergeScratch::default(),
                    halves.iter().copied(),
                    |u, v, slot| fired.push((u, v, slot)),
                );
                let want: BTreeSet<NodeId> =
                    (0..500).map(even).chain(fresh.iter().copied()).collect();
                assert!(a.slice(1).iter().eq(want.iter()), "k = {k}, {fresh:?}");
                // Each once, in row order, credited to its first arrival.
                let slots: Vec<(usize, NodeId, u32)> = fresh
                    .iter()
                    .zip((0..k).rev())
                    .map(|(&v, slot)| (1, v, slot))
                    .collect();
                assert_eq!(fired, slots, "k = {k}");
                for u in [0, 2] {
                    assert!(a.slice(u).iter().copied().eq((0..500).map(even)), "row {u}");
                }
                assert_eq!(a.total_len(), 1500 + k as usize);
            }
        }
    }

    #[test]
    fn remove_sorted_shifts_and_tracks_counters() {
        let mut a = SliceArena::new(2, 10);
        for v in [2, 4, 7, 9] {
            a.insert_sorted(0, NodeId(v));
        }
        assert!(a.remove_sorted(0, NodeId(4)));
        assert!(!a.remove_sorted(0, NodeId(4)), "second removal misses");
        assert!(!a.remove_sorted(1, NodeId(4)), "empty list misses");
        assert_eq!(a.slice(0), &[NodeId(2), NodeId(7), NodeId(9)]);
        assert_eq!(a.total_len(), 3);
    }

    #[test]
    fn clear_releases_capacity_and_bounds_the_slab() {
        // Repeated leave/join cycles must not grow the slab unboundedly:
        // `clear` turns the row's reserve into dead space, and the same
        // epoch compaction that reclaims relocation leftovers reclaims it.
        let n = 64;
        let mut a = SliceArena::new(n, 1000);
        let mut rng = SmallRng::seed_from_u64(5);
        for cycle in 0..200 {
            for u in 0..n {
                for _ in 0..rng.random_range(1..20usize) {
                    a.insert_sorted(u, NodeId(rng.random_range(0..1000u32)));
                }
            }
            for u in 0..n / 2 {
                let dropped = a.clear(u);
                assert_eq!(a.len(u), 0, "cycle {cycle}: cleared row not empty");
                assert!(dropped > 0, "cycle {cycle}: row {u} had entries");
            }
            // The compaction bound holds at every cycle boundary — dead
            // space from tombstones never exceeds the usual trigger.
            assert!(
                a.data.len() <= a.reserved + a.reserved / 2 + 1024,
                "cycle {cycle}: slab {} exceeds bound for reserved {}",
                a.data.len(),
                a.reserved
            );
            let recount = (0..n).map(|u| a.len(u)).sum::<usize>();
            assert_eq!(a.total_len(), recount, "cycle {cycle}: live counter");
        }
    }

    #[test]
    fn cleared_row_reuses_slot_before_slab_growth() {
        // After a compaction, a tombstoned row keeps exactly one reserved
        // slot — so the first re-learned contact of a re-joining member
        // lands in reused space, not fresh slab growth.
        let n = 32;
        let mut a = SliceArena::new(n, 10_000);
        let mut rng = SmallRng::seed_from_u64(11);
        // Build up enough volume that clears trigger a compaction.
        for u in 0..n {
            for _ in 0..40 {
                a.insert_sorted(u, NodeId(rng.random_range(0..10_000u32)));
            }
        }
        for u in 0..n - 1 {
            a.clear(u);
        }
        // A compaction must have run by now (clears released most reserve).
        assert!(a.data.len() <= a.reserved + a.reserved / 2 + 1024);
        let cleared_cap = a.cap[0];
        assert!(
            cleared_cap >= 1,
            "compacted tombstone rows must keep a reserved slot"
        );
        let slab_before = a.data.len();
        a.insert_sorted(0, NodeId(77));
        assert_eq!(
            a.data.len(),
            slab_before,
            "first re-join insert must reuse the reserved slot, not grow the slab"
        );
        assert_eq!(a.slice(0), &[NodeId(77)]);
    }

    #[test]
    fn tombstone_compaction_preserves_pending_relocation_slot() {
        // The PR 4 mid-relocation regression, re-pinned under tombstones:
        // an insert checks capacity once, relocates, and then writes. If a
        // `clear`-driven compaction (triggered inside that relocation by
        // tombstone dead space) handed rows cap == len, the pending write
        // would land in the next node's region. Interleave heavy member
        // removal with edge growth so relocations constantly race freshly
        // tombstoned space; the model + validate() catch any corruption.
        let n = 300;
        let mut g = ArenaGraph::new(n);
        let mut rng = SmallRng::seed_from_u64(4321);
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        for step in 0..12_000 {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            if a != b {
                let canon = (a.min(b), a.max(b));
                assert_eq!(g.add_edge(NodeId(a), NodeId(b)), model.insert(canon));
            }
            if step % 37 == 0 {
                let u = rng.random_range(0..n as u32);
                let expect = model.iter().filter(|&&(x, y)| x == u || y == u).count() as u64;
                assert_eq!(g.remove_member(NodeId(u)), expect, "step {step}");
                model.retain(|&(x, y)| x != u && y != u);
            }
        }
        assert_eq!(g.m(), model.len() as u64);
        g.validate().unwrap();
    }

    /// `adj` as the rows of a segment whose node ids start at its
    /// universe, past every id its rows hold, so no row holds its own node.
    fn segment(adj: SliceArena) -> ShardSeg {
        ShardSeg {
            base: adj.side.universe,
            adj,
            m_canonical: 0,
        }
    }

    /// `a` through the worker-bootstrap path: streamed as one segment's
    /// chunks of at most `budget` entries, then reassembled.
    fn through_chunks(a: &SliceArena, budget: usize) -> SliceArena {
        let mut asm = SegSnapshotAssembler::new(a.side.universe);
        for chunk in segment(a.clone()).chunks(budget) {
            asm.accept(&chunk).unwrap();
        }
        asm.finish().adj
    }

    #[test]
    fn snapshot_restore_preserves_reserved_and_tombstone_state() {
        // Worker-bootstrap contract: a rebuilt arena is not merely
        // row-equal — its per-row capacities, tombstones, and the
        // reserved/live totals match the source exactly, so every later
        // relocation/compaction decision replays identically.
        let n = 64;
        let mut a = SliceArena::new(n, 10_000);
        let mut rng = SmallRng::seed_from_u64(21);
        for u in 0..n {
            for _ in 0..rng.random_range(0..40usize) {
                a.insert_sorted(u, NodeId(rng.random_range(0..10_000u32)));
            }
        }
        // Tombstone a third of the rows — including freshly cleared rows
        // whose cap == 0 state only exists until the next compaction.
        for u in (0..n).step_by(3) {
            a.clear(u);
        }
        for budget in [1, 64, usize::MAX] {
            let b = through_chunks(&a, budget);
            assert_eq!(a.len, b.len, "per-row lengths");
            assert_eq!(a.cap, b.cap, "per-row reserved capacity");
            assert_eq!(a.reserved, b.reserved, "reserved total");
            assert_eq!(a.live, b.live, "live total");
            for u in 0..n {
                assert_eq!(a.slice(u), b.slice(u), "row {u}");
            }
            // Tombstoned rows stay tombstoned (cap 0), not re-reserved.
            for u in (0..n).step_by(3) {
                if a.cap[u] == 0 {
                    assert_eq!(b.cap[u], 0, "row {u}: tombstone lost its cap-0 state");
                }
            }
            // The rebuilt slab is dense: dead space is the one thing the
            // stream does not carry.
            assert_eq!(b.data.len(), b.reserved);
        }
    }

    #[test]
    fn restore_then_compact_equals_source_then_compact() {
        // The rebuild-then-compact equivalence pin: drive a source arena
        // and its twin rebuilt from the chunk stream through the same
        // mutation tail — inserts forcing relocations, clears forcing
        // tombstone compactions — and require identical bookkeeping at
        // every step. Because the rebuild preserved caps exactly, both
        // arenas relocate the same rows on the same inserts; the only
        // allowed divergence is *when* the slab
        // hits the compaction trigger (the twin starts dense), and the
        // trigger is content-transparent, so rows and caps re-converge at
        // each compaction.
        let n = 48;
        let mut src = SliceArena::new(n, 5_000);
        let mut rng = SmallRng::seed_from_u64(22);
        for u in 0..n {
            for _ in 0..rng.random_range(1..30usize) {
                src.insert_sorted(u, NodeId(rng.random_range(0..5_000u32)));
            }
        }
        for u in (0..n).step_by(4) {
            src.clear(u);
        }
        let mut twin = through_chunks(&src, 100);
        let mut ops = SmallRng::seed_from_u64(23);
        for step in 0..8_000 {
            let u = ops.random_range(0..n);
            let v = NodeId(ops.random_range(0..5_000u32));
            match step % 5 {
                4 => {
                    assert_eq!(src.clear(u), twin.clear(u), "step {step}: clear");
                }
                _ => {
                    assert_eq!(
                        src.insert_sorted(u, v),
                        twin.insert_sorted(u, v),
                        "step {step}: insert verdict"
                    );
                }
            }
            if step % 512 == 0 {
                for w in 0..n {
                    assert_eq!(src.slice(w), twin.slice(w), "step {step}: row {w}");
                }
                assert_eq!(src.live, twin.live, "step {step}");
            }
        }
        // Force an epoch pass on both (append untracked dead space until
        // the trigger fires — an in-module trick; the pass discards it).
        // Compaction rewrites every cap as a pure function of row length,
        // so after both arenas compact, the *full* bookkeeping — not just
        // the rows — must re-converge, even though their compactions fired
        // at different steps during the tail above.
        for a in [&mut src, &mut twin] {
            let pad = a.reserved + a.reserved / 2 + 2048;
            let dead = a.data.len() + pad;
            a.data.resize(dead, NodeId(0));
            a.maybe_compact(0, 0);
            assert!(a.data.len() < dead, "forced compaction did not run");
        }
        for w in 0..n {
            assert_eq!(src.slice(w), twin.slice(w), "final row {w}");
        }
        assert_eq!(src.len, twin.len);
        assert_eq!(src.cap, twin.cap);
        assert_eq!(src.reserved, twin.reserved);
        assert_eq!(src.live, twin.live);
        assert!(src.data.len() <= src.reserved + src.reserved / 2 + 1024);
        assert!(twin.data.len() <= twin.reserved + twin.reserved / 2 + 1024);
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let mut a = SliceArena::new(4, 4);
        a.insert_sorted(0, NodeId(3));
        a.insert_sorted(2, NodeId(1));
        let mut chunk = segment(a).chunks(usize::MAX).next().unwrap();
        chunk.entries.push(NodeId(9));
        let err = SegSnapshotAssembler::new(1 << 20)
            .accept(&chunk)
            .unwrap_err();
        assert!(err.contains("entries"), "extra entries: {err}");
        chunk.entries.pop();
        chunk.entries.pop();
        let err = SegSnapshotAssembler::new(1 << 20)
            .accept(&chunk)
            .unwrap_err();
        assert!(err.contains("entries"), "missing entries: {err}");
        // A well-formed stream of an empty arena rebuilds to empty.
        let empty = through_chunks(&SliceArena::new(0, 0), 1);
        assert_eq!(empty.lists(), 0);
        assert_eq!(empty.total_len(), 0);
    }

    #[test]
    fn degenerate_membership_sizes() {
        // n ∈ {0, 1} saturation: empty-membership rounds must be no-ops.
        let a0 = SliceArena::new(0, 0);
        assert_eq!(a0.total_len(), 0);
        let mut g1 = ArenaGraph::new(1);
        assert_eq!(g1.remove_member(NodeId(0)), 0);
        assert_eq!(g1.admit_member(NodeId(0), &[]), 0);
        // Self-contact bootstrap is a degenerate-draw no-op.
        assert_eq!(g1.admit_member(NodeId(0), &[NodeId(0)]), 0);
        g1.validate().unwrap();
        // Clearing an already-empty row is a counted no-op.
        let mut a1 = SliceArena::new(1, 1);
        assert_eq!(a1.clear(0), 0);
        assert_eq!(a1.clear(0), 0);
    }

    #[test]
    fn remove_and_admit_member_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 80;
        let mut g = ArenaGraph::new(n);
        for _ in 0..600 {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }
        let victim = NodeId(17);
        let contacts: Vec<NodeId> = g.neighbors(victim).to_vec();
        let deg = contacts.len() as u64;
        let m0 = g.m();
        assert_eq!(g.remove_member(victim), deg);
        assert_eq!(g.m(), m0 - deg);
        assert!(g.neighbors(victim).is_empty());
        for &v in &contacts {
            assert!(!g.has_edge(v, victim), "stale mirror entry at {v:?}");
        }
        g.validate().unwrap();
        // Re-admit with the same contacts: the exact edge set returns.
        assert_eq!(g.admit_member(victim, &contacts), deg);
        assert_eq!(g.m(), m0);
        assert_eq!(g.neighbors(victim), &contacts[..]);
        g.validate().unwrap();
        // Double-leave is a no-op; admitting duplicate contacts dedups.
        assert_eq!(g.remove_member(victim), deg);
        assert_eq!(g.remove_member(victim), 0);
        let doubled: Vec<NodeId> = contacts.iter().chain(&contacts).copied().collect();
        assert_eq!(g.admit_member(victim, &doubled), deg);
        g.validate().unwrap();
    }

    #[test]
    fn arena_graph_matches_undirected_on_same_edges() {
        // Against the reference undirected graph: one ordered set per node.
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 50;
        let mut model: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
        let mut arena = ArenaGraph::new(n);
        for _ in 0..400 {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            let new = a != b && model[a].insert(NodeId::new(b)) && model[b].insert(NodeId::new(a));
            assert_eq!(
                arena.add_edge(NodeId::new(a), NodeId::new(b)),
                new,
                "insert verdicts diverge on ({a},{b})"
            );
        }
        assert_eq!(2 * arena.m(), model.iter().map(|r| r.len() as u64).sum());
        for u in arena.nodes() {
            assert!(arena.neighbors(u).iter().eq(&model[u.index()]), "row {u:?}");
        }
        arena.validate().unwrap();
    }

    #[test]
    fn apply_batch_dedups_and_attributes_first_proposer() {
        let mut g = ArenaGraph::from_edges(5, [(0, 1)]);
        // Proposals: an existing edge (reversed), a self-loop, a duplicate
        // pair in both orientations, and a fresh edge.
        let proposals = [
            (NodeId(1), NodeId(0)), // already present
            (NodeId(2), NodeId(2)), // self-loop no-op
            (NodeId(3), NodeId(4)), // new, first proposer wins
            (NodeId(4), NodeId(3)), // duplicate of the above
            (NodeId(2), NodeId(0)), // new
        ];
        let mut winners = Vec::new();
        let tagged = proposals
            .iter()
            .enumerate()
            .map(|(slot, &(a, b))| (slot, a, b));
        let (proposed, added) = g.apply_batch(tagged, |slot, a, b| winners.push((slot, a, b)));
        assert_eq!((proposed, added), (5, 2));
        assert_eq!(
            winners,
            vec![(2, NodeId(3), NodeId(4)), (4, NodeId(2), NodeId(0)),],
            "first proposer credited, original proposal order"
        );
        assert!(g.has_edge(NodeId(3), NodeId(4)));
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.m(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn apply_batch_equals_sequential_application() {
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 40;
        let mut batch_g = ArenaGraph::new(n);
        let mut seq_g = ArenaGraph::new(n);
        for _round in 0..30 {
            let proposals: Vec<(NodeId, NodeId)> = (0..n)
                .map(|_| {
                    (
                        NodeId(rng.random_range(0..n as u32)),
                        NodeId(rng.random_range(0..n as u32)),
                    )
                })
                .collect();
            let mut seq_added = 0u64;
            for &(a, b) in &proposals {
                seq_added += seq_g.add_edge(a, b) as u64;
            }
            let (_, added) =
                batch_g.apply_batch(proposals.iter().map(|&(a, b)| ((), a, b)), |_, _, _| {});
            assert_eq!(added, seq_added);
            assert_eq!(batch_g.m(), seq_g.m());
        }
        for u in batch_g.nodes() {
            assert_eq!(batch_g.neighbors(u), seq_g.neighbors(u));
        }
    }

    #[test]
    fn sampling_is_uniform_over_sorted_row() {
        let g = ArenaGraph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let row = g.neighbor_row(NodeId(0));
        assert_eq!(row, [NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0usize; 6];
        for _ in 0..40_000 {
            counts[row[rng.random_range(0..row.len())].index()] += 1;
        }
        assert_eq!(counts[0] + counts[5], 0);
        for &c in &counts[1..5] {
            assert!((9_000..=11_000).contains(&c), "counts {counts:?}");
        }
        assert!(g.neighbor_row(NodeId(5)).is_empty());
    }

    #[test]
    fn degenerate_sizes() {
        let g0 = ArenaGraph::new(0);
        assert_eq!((g0.n(), g0.m(), g0.complete_m()), (0, 0, 0));
        assert!(g0.is_complete());
        g0.validate().unwrap();
        let g1 = ArenaGraph::new(1);
        assert!(g1.is_complete());
        assert_eq!(g1.edges().count(), 0);
    }

    #[test]
    fn memory_stays_linear_in_edges() {
        // The whole point: memory must not scale with n². At n = 4096 the
        // bitmap layout would hold >= n²/8 = 2 MiB before the first edge;
        // the arena with 3n edges must stay far below that.
        let n = 4096;
        let mut g = ArenaGraph::new(n);
        let mut rng = SmallRng::seed_from_u64(11);
        while g.m() < 3 * n as u64 {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            g.add_edge(NodeId(a), NodeId(b));
        }
        let bitmap_floor = n * n / 8;
        assert!(
            g.memory_bytes() < bitmap_floor / 4,
            "arena uses {} bytes, bitmap floor is {}",
            g.memory_bytes(),
            bitmap_floor
        );
    }

    #[test]
    fn from_undirected_roundtrip() {
        // A generator's graph rebuilt from its own edge list is itself.
        let g =
            crate::generators::tree_plus_random_edges(100, 250, &mut SmallRng::seed_from_u64(5));
        let back = ArenaGraph::from_edges(g.n(), g.edges().map(|e| (e.a.0, e.b.0)));
        assert_eq!(back.m(), g.m());
        assert!(g.nodes().all(|u| back.neighbors(u) == g.neighbors(u)));
        back.validate().unwrap();
    }
}
