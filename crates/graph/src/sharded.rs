//! Owner-partitioned arena adjacency for the multi-shard round engine.
//!
//! [`ShardedArenaGraph`] splits the node id space into `S` contiguous,
//! chunk-aligned ranges ([`ShardPlan`]); shard `s` **owns** the adjacency
//! rows of its node range in a private [`SliceArena`] segment
//! ([`ShardSeg`]). The partition is an *apply-phase* concept only:
//!
//! * **Reads are global.** A round's propose phase observes the immutable
//!   round-start graph `G_t`, so any node may query any row through the
//!   shared reference — [`ShardedArenaGraph::neighbors`] routes to the
//!   owning segment, and a cross-shard membership test is a lookup in the
//!   owner's sorted row (a binary search, or one bit on a
//!   [dense row](crate::arena#dense-rows): segment rows hold global ids, so
//!   a segment's universe is the graph's `n`).
//! * **Writes are owner-local.** An undirected edge `(lo, hi)` materializes
//!   as two half-edges, one in row `lo` (owned by `owner(lo)`) and one in
//!   row `hi` (owned by `owner(hi)`). Each shard applies the half-edges
//!   routed to it without touching any other segment, so `S` shards apply a
//!   round with **zero synchronization** — the engine layer
//!   (`gossip-shard`) fans the segments out across the rayon pool.
//!
//! Rows are kept sorted (ascending id), exactly like [`ArenaGraph`]: the
//! layout is canonical, so the graph after a round is independent of both
//! the shard count and the order in which shards run. Each segment also
//! tracks the count of **canonical** edges it owns (those whose smaller
//! endpoint lives in the segment), making the global edge count an `O(S)`
//! sum with no cross-shard counter to contend on.
//!
//! ## Copy-on-write snapshots
//!
//! Segments are held behind [`Arc`]s, so [`Clone`]-ing a
//! [`ShardedArenaGraph`] is `O(S)` — one reference-count bump per segment,
//! no matter how many edges the graph holds. The clone *is* the snapshot:
//! a segment's storage is physically shared until the **owner shard next
//! writes it**, and that write leaves the snapshot's segment untouched.
//! A round commits through [`ShardedArenaGraph::segment_commits`]: a
//! segment that gets no half-edge stays shared; one the live graph alone
//! holds merges in place; and one still shared is **rebuilt by the
//! round's merge** ([`SegCommit::apply_half_edges`]) — its rows read once
//! and written, each with its new half-edges merged in, into a new dense,
//! node-ordered segment that replaces the live graph's reference. No copy
//! is made first, so the shared segment's dead space is not carried over
//! and the round makes one pass over its rows, not a copy followed by the
//! merge's relocations and compactions. Both writers share the scatter
//! and the per-row lookup, so they leave the same rows and counts. The
//! one-edge writes ([`ShardedArenaGraph::add_edge`],
//! [`ShardedArenaGraph::remove_member`]) and
//! [`ShardedArenaGraph::segments_mut`] deep-copy a shared segment
//! (`Arc::make_mut`) instead.
//! Readers of a snapshot therefore see the exact round the snapshot was
//! taken at, forever, while the live graph advances — the seam
//! `gossip-serve` builds its epoch-snapshot query surface on. Stat reads
//! on a snapshot stay `O(S)` too: [`ShardedArenaGraph::m`] and
//! [`ShardedArenaGraph::half_edge_count`] sum per-segment counters that
//! every mutation maintains incrementally.
//!
//! ## The bootstrap stream
//!
//! A cross-process worker starts from a copy of every segment, and that
//! copy has one image only: [`SegSnapshotChunk`]s, read straight from the
//! live rows ([`ShardSeg::chunks`]) and appended straight into a new
//! segment's arena ([`SegSnapshotAssembler`]). Each row travels with its
//! reserved capacity, tombstones included, so the rebuilt segment
//! relocates and compacts on the same mutations as its source;
//! [`ShardedArenaGraph::from_segments`] checks that the rebuilt segments
//! tile the plan. The rows are outside input on the receiving side, so the
//! assembler checks each one before it allocates anything for it: a
//! capacity no row of the graph can reach, or a row that is not strictly
//! ascending, holds its own node or names a node past the graph, is
//! refused.

use crate::arena::{ArenaGraph, MergeScratch, SliceArena, UniformNeighbors};
use crate::node::{Edge, NodeId};
use std::ops::Range;
use std::sync::Arc;

/// Shard spans are multiples of this many nodes (the round engine's propose
/// chunk size — `gossip-shard` asserts the two constants agree at compile
/// time). Alignment makes every propose chunk land in exactly one source
/// shard, so "concatenate mailboxes in (source shard, chunk index) order"
/// is the same stream as "concatenate chunk buffers in chunk order", which
/// is the sequential engine's node-order proposal stream.
pub const SHARD_ALIGN: usize = 1024;

/// A contiguous, chunk-aligned partition of `0..n` into `shards` ranges.
///
/// Every shard spans `shard_nodes` ids (the last may be ragged; with more
/// shards than chunks the trailing shards are empty). Ownership is a pure
/// division: `owner(u) = u / shard_nodes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    shards: usize,
    shard_nodes: usize,
}

impl ShardPlan {
    /// Plans `shards` chunk-aligned ranges over `n` nodes.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(n: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let chunks = n.div_ceil(SHARD_ALIGN);
        let per_shard = chunks.div_ceil(shards).max(1);
        ShardPlan {
            n,
            shards,
            shard_nodes: per_shard * SHARD_ALIGN,
        }
    }

    /// Total nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards (some may own empty ranges).
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Ids per shard span (a multiple of [`SHARD_ALIGN`]).
    #[inline]
    pub fn shard_nodes(&self) -> usize {
        self.shard_nodes
    }

    /// The shard owning node `u`.
    #[inline]
    pub fn owner(&self, u: NodeId) -> usize {
        u.index() / self.shard_nodes
    }

    /// The node ids shard `s` owns (empty for trailing shards when
    /// `shards > ceil(n / SHARD_ALIGN)`).
    #[inline]
    pub fn span(&self, s: usize) -> Range<usize> {
        let lo = (s * self.shard_nodes).min(self.n);
        let hi = ((s + 1) * self.shard_nodes).min(self.n);
        lo..hi
    }

    /// The propose-chunk indices (chunks of [`SHARD_ALIGN`] nodes) whose
    /// proposers shard `s` owns.
    #[inline]
    pub fn chunk_span(&self, s: usize) -> Range<usize> {
        let chunks = self.n.div_ceil(SHARD_ALIGN);
        let per_shard = self.shard_nodes / SHARD_ALIGN;
        let lo = (s * per_shard).min(chunks);
        let hi = ((s + 1) * per_shard).min(chunks);
        lo..hi
    }
}

/// One routed half-edge candidate: `(slot, row, other)` — the proposal's
/// global arrival slot in the round's node-order stream (ties in the
/// per-shard merge break toward the earliest slot, mirroring the
/// sequential engine's first-proposer-wins order), the owned row's global
/// id, and the other endpoint.
pub type HalfEdge = (u32, NodeId, NodeId);

/// One shard's segment: the adjacency rows of a contiguous node range,
/// stored locally (row `u` lives at local index `u - base`).
#[derive(Clone, Debug)]
pub struct ShardSeg {
    pub(crate) base: usize,
    pub(crate) adj: SliceArena,
    /// Canonical edges owned here: edges whose smaller endpoint is local.
    pub(crate) m_canonical: u64,
}

impl ShardSeg {
    /// An empty segment owning `span` of an `n`-node graph.
    fn new(span: Range<usize>, n: usize) -> Self {
        ShardSeg {
            base: span.start,
            adj: SliceArena::new(span.len(), n),
            m_canonical: 0,
        }
    }

    /// Number of rows owned.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.lists()
    }

    /// Whether the segment owns no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical edges owned here (smaller endpoint local) — the cached
    /// counter behind the graph's `O(S)` [`ShardedArenaGraph::m`].
    #[inline]
    pub fn m_canonical(&self) -> u64 {
        self.m_canonical
    }

    /// Half-edges stored in this segment's rows — O(1), from the arena's
    /// cached live-entry counter.
    #[inline]
    pub fn half_edge_count(&self) -> usize {
        self.adj.total_len()
    }

    /// Row of global node `u` (must be owned here).
    #[inline]
    fn row(&self, u: NodeId) -> &[NodeId] {
        self.adj.slice(u.index() - self.base)
    }

    /// Applies one round's half-edges routed to this shard, already
    /// concatenated in global arrival order across `sources`, in place.
    /// Returns the number of genuinely new **canonical** edges (smaller
    /// endpoint owned here), so summing the return values across shards
    /// counts each new edge exactly once.
    ///
    /// The merge is [`SliceArena::merge_rows`] over the segment's local
    /// rows, the one [`ArenaGraph::apply_batch`] ends in; the two
    /// half-edges of a proposal live in different segments, so nothing is
    /// filtered beforehand and every half-edge is looked up in its row.
    /// `scratch` is caller-provided so steady-state rounds allocate nothing.
    pub fn apply_half_edges(&mut self, sources: &[&[HalfEdge]], scratch: &mut MergeScratch) -> u64 {
        let mut added = 0u64;
        let halves = self.local_halves(sources);
        self.adj
            .merge_rows(scratch, halves, canonical(self.base, &mut added));
        self.m_canonical += added;
        added
    }

    /// `sources`' half-edges as `(local row, other, slot)`, the merge
    /// writers' input.
    fn local_halves<'a>(
        &self,
        sources: &'a [&'a [HalfEdge]],
    ) -> impl Iterator<Item = (usize, NodeId, u32)> + Clone + 'a {
        let (base, rows) = (self.base, self.len());
        sources
            .iter()
            .flat_map(|src| src.iter())
            .map(move |&(slot, row, other)| {
                debug_assert!(
                    row.index() >= base && row.index() - base < rows,
                    "half-edge {row:?} routed to the wrong shard (base {base})"
                );
                (row.index() - base, other, slot)
            })
    }

    /// The segment as a stream of row-contiguous chunks, each read straight
    /// from the live rows and carrying at most `max_entries` adjacency
    /// entries (a chunk always carries at least one row, so a single row
    /// larger than the budget still ships — as one oversized chunk). Each
    /// row travels with its reserved capacity, tombstones (`cap == 0`)
    /// included; dead space does not travel. Feeding the chunks in order
    /// to a [`SegSnapshotAssembler`] rebuilds the segment; the
    /// cross-process transports bootstrap their workers with this, so no
    /// frame grows with the segment and the datagram one can overlap the
    /// tail of the transfer with compute.
    pub fn chunks(&self, max_entries: usize) -> impl Iterator<Item = SegSnapshotChunk> + '_ {
        assert!(max_entries > 0, "max_entries must be positive");
        let (rows, mut row, mut done) = (self.len(), 0, false);
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let row_start = row;
            let mut taken = 0;
            while row < rows {
                let len = self.adj.len(row);
                // First row always fits; later rows stop at the budget.
                if row > row_start && taken + len > max_entries {
                    break;
                }
                taken += len;
                row += 1;
            }
            done = row == rows;
            let mut entries = Vec::with_capacity(taken);
            for u in row_start..row {
                entries.extend_from_slice(self.adj.slice(u));
            }
            Some(SegSnapshotChunk {
                base: self.base as u64,
                row_start: row_start as u32,
                last: done,
                m_canonical: if done { self.m_canonical } else { 0 },
                len_cap: (row_start..row)
                    .map(|u| (self.adj.len(u) as u32, self.adj.cap(u)))
                    .collect(),
                entries,
            })
        })
    }
}

/// The merge writers' `on_new` for a segment based at `base`: counts into
/// `added` each new half-edge whose row is the edge's smaller endpoint.
fn canonical(base: usize, added: &mut u64) -> impl FnMut(usize, NodeId, u32) + '_ {
    move |local, other, _| *added += u64::from(base + local < other.index())
}

/// One segment's place in a round's commit, as
/// [`ShardedArenaGraph::segment_commits`] hands it out: what the round
/// engine fans out across workers, one per shard, with no aliasing.
#[derive(Debug)]
pub struct SegCommit<'a>(&'a mut Arc<ShardSeg>);

impl SegCommit<'_> {
    /// Commits the round's half-edges routed to this segment, as
    /// [`ShardSeg::apply_half_edges`] (same rows, same return value),
    /// copy-on-write:
    ///
    /// * with no half-edge, the segment is left as it is, shared or not;
    /// * a segment the graph alone holds merges in place;
    /// * a segment still shared with a snapshot is rebuilt by the merge —
    ///   its rows read once and written, with the round merged in, into a
    ///   new dense segment ([`SliceArena::merged`]) that replaces the
    ///   graph's reference. The snapshot keeps the old one, untouched.
    pub fn apply_half_edges(&mut self, sources: &[&[HalfEdge]], scratch: &mut MergeScratch) -> u64 {
        if sources.iter().all(|src| src.is_empty()) {
            return 0;
        }
        if let Some(seg) = Arc::get_mut(self.0) {
            return seg.apply_half_edges(sources, scratch);
        }
        let (seg, mut added) = (&**self.0, 0u64);
        let halves = seg.local_halves(sources);
        let adj = seg
            .adj
            .merged(scratch, halves, canonical(seg.base, &mut added));
        *self.0 = Arc::new(ShardSeg {
            base: seg.base,
            adj,
            m_canonical: seg.m_canonical + added,
        });
        added
    }
}

/// One row-contiguous piece of a segment's bootstrap stream. Every chunk
/// repeats the segment's `base` (so a receiver can sanity-check that all
/// chunks belong to the same segment); `m_canonical` is carried on the
/// `last` chunk, where the full count is finally known to be complete.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegSnapshotChunk {
    /// First global node id of the segment (same in every chunk).
    pub base: u64,
    /// Local index of the first row in this chunk.
    pub row_start: u32,
    /// Whether this is the stream's final chunk.
    pub last: bool,
    /// Canonical edges owned by the segment — meaningful on the `last`
    /// chunk only (zero elsewhere).
    pub m_canonical: u64,
    /// `(len, cap)` for the rows in this chunk, in row order.
    pub len_cap: Vec<(u32, u32)>,
    /// The chunk's rows' live entries, concatenated in row order.
    pub entries: Vec<NodeId>,
}

/// Incrementally rebuilds a [`ShardSeg`] from its chunk stream, appending
/// each row straight into the new segment's arena at its recorded
/// capacity — the structural rebuild that keeps relocation and compaction
/// firing on the same mutations as in the source process (see the
/// capacity note on the arena's row append).
///
/// Chunks must arrive in row order, exactly once (a stream socket and the
/// datagram transport's per-peer windows both guarantee it); every
/// violation — base drift, a row gap, a chunk after the final one, a row
/// count that disagrees with the entries, a row longer than its capacity,
/// a capacity no row of the graph can reach, a row that is not strictly
/// ascending, holds its own node or names a node `≥ n` — is an error that
/// leaves the assembly unchanged, so a corrupted stream can never
/// silently assemble into a wrong segment.
#[derive(Debug)]
pub struct SegSnapshotAssembler {
    base: Option<u64>,
    m_canonical: u64,
    adj: SliceArena,
    n: usize,
    max_cap: usize,
    complete: bool,
}

impl SegSnapshotAssembler {
    /// An empty assembler for a segment of an `n`-node graph, awaiting the
    /// chunk with `row_start == 0`. A row of such a graph holds at most
    /// `n - 1` entries, so a capacity above what the arena gives a row
    /// that long is refused before any slot is allocated.
    pub fn new(n: usize) -> Self {
        SegSnapshotAssembler {
            base: None,
            m_canonical: 0,
            adj: SliceArena::new(0, n),
            n,
            max_cap: SliceArena::cap_bound(n.saturating_sub(1)),
            complete: false,
        }
    }

    /// Feeds the next chunk. Returns `Ok(true)` once the stream is
    /// complete (the `last` chunk was absorbed).
    pub fn accept(&mut self, chunk: &SegSnapshotChunk) -> Result<bool, String> {
        if self.complete {
            return Err(format!(
                "snapshot chunk (row_start {}) after the final chunk",
                chunk.row_start
            ));
        }
        if let Some(base) = self.base.filter(|&b| b != chunk.base) {
            return Err(format!(
                "snapshot chunk base drifted: {base} then {}",
                chunk.base
            ));
        }
        let rows = self.adj.lists();
        if chunk.row_start as usize != rows {
            return Err(format!(
                "snapshot chunk row_start {} but {rows} rows assembled",
                chunk.row_start
            ));
        }
        let mut live = 0;
        for (i, &(l, c)) in chunk.len_cap.iter().enumerate() {
            if l > c {
                return Err(format!("row {}: len {l} exceeds cap {c}", rows + i));
            }
            if c as usize > self.max_cap {
                return Err(format!(
                    "row {}: cap {c} exceeds {}, the most a row of this graph reaches",
                    rows + i,
                    self.max_cap
                ));
            }
            live += l as usize;
        }
        if live != chunk.entries.len() {
            return Err(format!(
                "snapshot chunk promises {live} entries but carries {}",
                chunk.entries.len()
            ));
        }
        let (n, mut read) = (self.n, 0);
        for (i, &(l, _)) in chunk.len_cap.iter().enumerate() {
            let row = &chunk.entries[read..read + l as usize];
            read += l as usize;
            let u = chunk.base.saturating_add((rows + i) as u64);
            let fault = if row.windows(2).any(|w| w[0] >= w[1]) {
                "is not strictly ascending"
            } else if row.iter().any(|v| u64::from(v.0) == u) {
                "holds its own node"
            } else if row.last().is_some_and(|v| v.index() >= n) {
                "names a node past the graph"
            } else {
                continue;
            };
            return Err(format!("row {u} that {fault} (n = {n})"));
        }
        self.base = Some(chunk.base);
        let mut read = 0;
        for &(l, c) in &chunk.len_cap {
            self.adj
                .push_list(&chunk.entries[read..read + l as usize], c);
            read += l as usize;
        }
        if chunk.last {
            self.m_canonical = chunk.m_canonical;
            self.complete = true;
        }
        Ok(self.complete)
    }

    /// Whether the `last` chunk has been absorbed.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Hands back the rebuilt segment, its slab dense. Panics if called
    /// before [`SegSnapshotAssembler::is_complete`].
    pub fn finish(self) -> ShardSeg {
        assert!(self.complete, "finish on incomplete snapshot assembly");
        ShardSeg {
            base: self.base.unwrap_or(0) as usize,
            adj: self.adj,
            m_canonical: self.m_canonical,
        }
    }
}

/// An undirected graph whose sorted adjacency rows are partitioned into
/// owner-local arena segments — the storage backend of the `gossip-shard`
/// round engine.
///
/// Behaviorally a drop-in for [`ArenaGraph`]: same sorted canonical rows,
/// same query surface, same `O(m + n)` memory — plus a shard seam
/// ([`ShardedArenaGraph::segment_commits`]) that hands each shard's rows to
/// a different worker with no aliasing, and `O(S)` copy-on-write snapshots
/// (`clone()` bumps one [`Arc`] per segment; a shared segment is rebuilt
/// by its owner's next round merge, or deep-copied by a one-edge write —
/// see the [module docs](self)).
///
/// ```
/// use gossip_graph::{NodeId, ShardedArenaGraph};
/// let mut g = ShardedArenaGraph::new(4000, 4);
/// assert!(g.add_edge(NodeId(1), NodeId(3999))); // endpoints in two shards
/// assert!(!g.add_edge(NodeId(3999), NodeId(1)));
/// assert_eq!(g.m(), 1);
/// assert_eq!(g.neighbors(NodeId(3999)), &[NodeId(1)]);
///
/// let snap = g.clone(); // O(S): shares every segment
/// assert!(snap.shares_segment(&g, 0));
/// g.add_edge(NodeId(1), NodeId(2)); // owner write un-shares shard 0 only
/// assert!(!snap.shares_segment(&g, 0));
/// assert_eq!(snap.m(), 1); // the snapshot still sees the old round
/// ```
#[derive(Clone, Debug)]
pub struct ShardedArenaGraph {
    plan: ShardPlan,
    segs: Vec<Arc<ShardSeg>>,
}

impl ShardedArenaGraph {
    /// Creates an empty graph with `n` isolated nodes across `shards`
    /// shards.
    pub fn new(n: usize, shards: usize) -> Self {
        let plan = ShardPlan::new(n, shards);
        let segs = (0..shards)
            .map(|s| Arc::new(ShardSeg::new(plan.span(s), n)))
            .collect();
        ShardedArenaGraph { plan, segs }
    }

    /// Builds a graph from an edge list (duplicates ignored, self-loops
    /// no-ops), like [`ArenaGraph::from_edges`].
    pub fn from_edges(
        n: usize,
        shards: usize,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let mut g = ShardedArenaGraph::new(n, shards);
        for (a, b) in edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    /// Snapshots an [`ArenaGraph`] into the sharded layout.
    pub fn from_arena(g: &ArenaGraph, shards: usize) -> Self {
        let mut out = ShardedArenaGraph::new(g.n(), shards);
        for e in g.edges() {
            out.add_edge(e.a, e.b);
        }
        out
    }

    /// The partition.
    #[inline]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.segs.len()
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.plan.n()
    }

    /// Number of edges (an `O(S)` sum of per-shard canonical counts).
    #[inline]
    pub fn m(&self) -> u64 {
        self.segs.iter().map(|s| s.m_canonical).sum()
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
        self.m() == self.complete_m()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Neighbors of `u`, in ascending id order (routed to the owner).
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.segs[self.plan.owner(u)].row(u)
    }

    /// Edge membership test on the owner's sorted row (one bit on a dense
    /// row, else a binary search).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let seg = &self.segs[self.plan.owner(u)];
        seg.adj.contains_sorted(u.index() - seg.base, v)
    }

    /// Adds edge `(u, v)`; returns `true` if new. Self-loops are no-ops.
    /// The one-at-a-time path (construction, oracle tests); rounds go
    /// through [`ShardedArenaGraph::segment_commits`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (su, sv) = (self.plan.owner(u), self.plan.owner(v));
        let lu = u.index() - self.segs[su].base;
        // Membership pre-check keeps duplicate adds from deep-copying a
        // snapshot-shared segment: only a genuinely new edge pays make_mut.
        if self.segs[su].adj.contains_sorted(lu, v) {
            return false;
        }
        let ins = Arc::make_mut(&mut self.segs[su]).adj.insert_sorted(lu, v);
        debug_assert!(ins, "membership pre-check and insert disagree");
        let lv = v.index() - self.segs[sv].base;
        let ins = Arc::make_mut(&mut self.segs[sv]).adj.insert_sorted(lv, u);
        debug_assert!(ins, "asymmetric adjacency");
        let canon = if u < v { su } else { sv };
        Arc::make_mut(&mut self.segs[canon]).m_canonical += 1;
        true
    }

    /// Removes member `u` from the edge set, keeping every per-segment
    /// counter exact. The mirror removals are **owner-local** like every
    /// other write: `u`'s sorted row visits its contacts in ascending id
    /// order, and since ownership is a contiguous-range partition the
    /// removals arrive at each owning segment as one consecutive batch —
    /// the same per-owner routing discipline as the apply-phase mailboxes,
    /// collapsed inline because membership events are rare relative to
    /// round work. Each removed edge decrements `m_canonical` exactly once,
    /// on its smaller endpoint's owner. `u`'s own row is tombstoned through
    /// [`SliceArena::clear`], so the segment's epoch compaction reclaims
    /// its storage. Copy-on-write holds: only segments actually touched are
    /// un-shared from snapshots. Returns the number of edges removed.
    pub fn remove_member(&mut self, u: NodeId) -> u64 {
        let su = self.plan.owner(u);
        let contacts: Vec<NodeId> = self.neighbors(u).to_vec();
        for &v in &contacts {
            let sv = self.plan.owner(v);
            let seg = Arc::make_mut(&mut self.segs[sv]);
            let lv = v.index() - seg.base;
            let removed = seg.adj.remove_sorted(lv, u);
            debug_assert!(removed, "asymmetric adjacency at {v:?}->{u:?}");
            let canon = if u < v { su } else { sv };
            Arc::make_mut(&mut self.segs[canon]).m_canonical -= 1;
        }
        if contacts.is_empty() {
            // No edges, no writes: leave a snapshot-shared segment shared.
            return 0;
        }
        let seg = Arc::make_mut(&mut self.segs[su]);
        let dropped = seg.adj.clear(u.index() - seg.base) as u64;
        debug_assert_eq!(dropped, contacts.len() as u64);
        dropped
    }

    /// (Re-)admits member `u` with bootstrap edges to `contacts`
    /// (duplicates and self-loops are no-ops) — the sharded counterpart of
    /// [`ArenaGraph::admit_member`]. Returns the number of edges added.
    pub fn admit_member(&mut self, u: NodeId, contacts: &[NodeId]) -> u64 {
        contacts.iter().map(|&v| self.add_edge(u, v) as u64).sum()
    }

    /// The round's commit, one [`SegCommit`] per shard in shard order —
    /// the apply-phase seam the round engine fans out across workers. Each
    /// segment only ever touches its own rows, and one still shared with a
    /// snapshot is rebuilt by the round's merge rather than copied and then
    /// merged ([`SegCommit::apply_half_edges`]), so snapshots never observe
    /// in-flight writes.
    #[inline]
    pub fn segment_commits(&mut self) -> Vec<SegCommit<'_>> {
        self.segs.iter_mut().map(SegCommit).collect()
    }

    /// The shard segments, mutably and disjointly, in shard order. A
    /// segment still shared with a snapshot is deep-copied here
    /// (`Arc::make_mut`), dead space and all, before the caller sees
    /// `&mut`; segments not shared are handed out with zero copying. The
    /// round engine commits through [`ShardedArenaGraph::segment_commits`]
    /// instead, which copies nothing; this is the unconditional copy, for
    /// callers that want every segment unshared.
    #[inline]
    pub fn segments_mut(&mut self) -> Vec<&mut ShardSeg> {
        self.segs.iter_mut().map(Arc::make_mut).collect()
    }

    /// Read access to one segment.
    #[inline]
    pub fn segment(&self, s: usize) -> &ShardSeg {
        &self.segs[s]
    }

    /// Whether shard `s`'s storage is physically shared between `self` and
    /// `other` — i.e. neither side has written the segment since one was
    /// cloned from the other. The observable CoW contract, used by the
    /// snapshot aliasing tests.
    #[inline]
    pub fn shares_segment(&self, other: &Self, s: usize) -> bool {
        Arc::ptr_eq(&self.segs[s], &other.segs[s])
    }

    /// Half-edges stored across all segments (`2m`) — an `O(S)` sum of the
    /// per-segment cached counters, like [`ShardedArenaGraph::m`].
    #[inline]
    pub fn half_edge_count(&self) -> u64 {
        self.segs.iter().map(|s| s.half_edge_count() as u64).sum()
    }

    /// Builds a graph from its segments (in shard order), as
    /// [`SegSnapshotAssembler`]s rebuild them — the receiving half of
    /// transport worker bootstrap. Fails if the segments do not tile the
    /// `(n, shards)` plan exactly.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn from_segments(n: usize, shards: usize, segs: Vec<ShardSeg>) -> Result<Self, String> {
        let plan = ShardPlan::new(n, shards);
        if segs.len() != shards {
            return Err(format!("expected {shards} segments, got {}", segs.len()));
        }
        for (s, seg) in segs.iter().enumerate() {
            let span = plan.span(s);
            if seg.base != span.start || seg.len() != span.len() {
                return Err(format!(
                    "segment {s} has {} rows from {} but the plan expects {span:?}",
                    seg.len(),
                    seg.base
                ));
            }
        }
        let segs = segs.into_iter().map(Arc::new).collect();
        Ok(ShardedArenaGraph { plan, segs })
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

    /// Bytes held by the adjacency storage (deterministic, length-based),
    /// summed over segments.
    pub fn memory_bytes(&self) -> usize {
        self.segs
            .iter()
            .map(|s| s.adj.memory_bytes() + std::mem::size_of::<u64>())
            .sum()
    }

    /// Debug-grade structural validation: sorted rows, each dense row's
    /// sidecar set exactly at its ids, cross-shard symmetry, no
    /// self-loops, per-shard canonical counts consistent.
    pub fn validate(&self) -> Result<(), String> {
        let mut half_edges = 0u64;
        let mut canonical = 0u64;
        for u in self.nodes() {
            let row = self.neighbors(u);
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("row of {u:?} not strictly sorted"));
            }
            let seg = &self.segs[self.plan.owner(u)];
            seg.adj
                .check_sidecar(u.index() - seg.base)
                .map_err(|e| format!("row of {u:?}, in segment {}: {e}", self.plan.owner(u)))?;
            for &v in row {
                if u == v {
                    return Err(format!("self-loop at {u:?}"));
                }
                if !self.has_edge(v, u) {
                    return Err(format!("asymmetric edge {u:?}->{v:?}"));
                }
                half_edges += 1;
                canonical += (u < v) as u64;
            }
        }
        if half_edges != 2 * self.m() {
            return Err(format!(
                "edge count mismatch: m={} but half-edges={half_edges}",
                self.m()
            ));
        }
        if half_edges != self.half_edge_count() {
            return Err(format!(
                "cached half-edge count {} != recount {half_edges}",
                self.half_edge_count()
            ));
        }
        if canonical != self.m() {
            return Err(format!(
                "canonical count mismatch: m={} but canonical rows hold {canonical}",
                self.m()
            ));
        }
        for (s, seg) in self.segs.iter().enumerate() {
            if self.plan.span(s) != (seg.base..seg.base + seg.len()) {
                return Err(format!("segment {s} does not match its planned span"));
            }
        }
        Ok(())
    }
}

impl UniformNeighbors for ShardedArenaGraph {
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Every segment of `g` streamed in chunks of at most `budget` entries
    /// and reassembled, in shard order.
    fn rebuilt_segments(g: &ShardedArenaGraph, budget: usize) -> Vec<ShardSeg> {
        (0..g.shard_count())
            .map(|s| {
                let mut asm = SegSnapshotAssembler::new(g.n());
                for chunk in g.segment(s).chunks(budget) {
                    asm.accept(&chunk).unwrap();
                }
                asm.finish()
            })
            .collect()
    }

    #[test]
    fn segment_snapshots_roundtrip_the_graph() {
        // Transport-bootstrap contract: streaming every segment and
        // rebuilding through the plan reproduces the graph exactly —
        // including after churn has tombstoned rows — and the rebuilt
        // graph keeps evolving identically to the source.
        let mut rng = SmallRng::seed_from_u64(31);
        let n = 5000;
        let mut g = ShardedArenaGraph::new(n, 4);
        for _ in 0..4 * n {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            g.add_edge(NodeId(a), NodeId(b));
        }
        for _ in 0..40 {
            g.remove_member(NodeId(rng.random_range(0..n as u32)));
        }
        let mut r = ShardedArenaGraph::from_segments(n, 4, rebuilt_segments(&g, 100)).unwrap();
        assert_eq!(r.m(), g.m());
        for u in g.nodes() {
            assert_eq!(r.neighbors(u), g.neighbors(u), "row {u:?}");
        }
        r.validate().unwrap();
        // Same mutation tail on both: still identical.
        for _ in 0..2000 {
            let a = NodeId(rng.random_range(0..n as u32));
            let b = NodeId(rng.random_range(0..n as u32));
            assert_eq!(g.add_edge(a, b), r.add_edge(a, b));
        }
        assert_eq!(r.m(), g.m());
        // Wrong tiling is rejected: a different shard count, a different
        // n, segments out of order, a segment whose base is far out of range.
        let segs = || rebuilt_segments(&g, 100);
        assert!(ShardedArenaGraph::from_segments(n, 3, segs()).is_err());
        assert!(ShardedArenaGraph::from_segments(n + 1024, 4, segs()).is_err());
        let mut swapped = segs();
        swapped.swap(0, 1);
        assert!(ShardedArenaGraph::from_segments(n, 4, swapped).is_err());
        let mut far = segs();
        far[3].base = usize::MAX;
        assert!(ShardedArenaGraph::from_segments(n, 4, far).is_err());
    }

    #[test]
    fn snapshot_chunk_stream_roundtrips_and_rejects_corruption() {
        // Streamed-bootstrap contract: chunking a segment at any budget and
        // reassembling rebuilds a segment that streams back identically,
        // and the assembler rejects every structural violation — leaving
        // the assembly as it was — instead of assembling a wrong segment.
        let mut rng = SmallRng::seed_from_u64(97);
        let n = 4096;
        let mut g = ShardedArenaGraph::new(n, 4);
        for _ in 0..3 * n {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            g.add_edge(NodeId(a), NodeId(b));
        }
        for _ in 0..16 {
            g.remove_member(NodeId(rng.random_range(0..n as u32)));
        }
        let seg = g.segment(2);
        for budget in [1, 7, 100, 1 << 20] {
            let chunks: Vec<SegSnapshotChunk> = seg.chunks(budget).collect();
            assert!(chunks.last().unwrap().last);
            assert!(chunks[..chunks.len() - 1].iter().all(|c| !c.last));
            if budget >= seg.half_edge_count() {
                assert_eq!(chunks.len(), 1, "whole segment fits one chunk");
            }
            let mut asm = SegSnapshotAssembler::new(n);
            for (i, c) in chunks.iter().enumerate() {
                let done = asm.accept(c).unwrap();
                assert_eq!(done, i + 1 == chunks.len());
            }
            let rebuilt = asm.finish();
            let again: Vec<SegSnapshotChunk> = rebuilt.chunks(budget).collect();
            assert_eq!(again, chunks, "budget {budget}");
        }
        // Rejections: out-of-order, base drift, bad counts, a row longer
        // than its capacity, after-final.
        let chunks: Vec<SegSnapshotChunk> = seg.chunks(64).collect();
        assert!(chunks.len() > 2, "test needs a multi-chunk stream");
        let mut asm = SegSnapshotAssembler::new(n);
        assert!(asm.accept(&chunks[1]).unwrap_err().contains("row_start"));
        asm.accept(&chunks[0]).unwrap();
        assert!(asm.accept(&chunks[0]).unwrap_err().contains("row_start"));
        let mut drift = chunks[1].clone();
        drift.base += 1024;
        assert!(asm.accept(&drift).unwrap_err().contains("base drifted"));
        let mut short = chunks[1].clone();
        short.entries.pop();
        assert!(asm.accept(&short).unwrap_err().contains("entries"));
        let mut over = chunks[1].clone();
        let row = over.len_cap.iter_mut().find(|(l, _)| *l > 0).unwrap();
        row.1 = row.0 - 1;
        assert!(asm.accept(&over).unwrap_err().contains("exceeds cap"));
        // None of that touched the assembly: the honest tail completes it.
        for c in &chunks[1..] {
            asm.accept(c).unwrap();
        }
        assert_eq!(asm.finish().chunks(64).collect::<Vec<_>>(), chunks);
        let mut asm = SegSnapshotAssembler::new(n);
        for c in &chunks {
            asm.accept(c).unwrap();
        }
        assert!(
            asm.accept(chunks.last().unwrap())
                .unwrap_err()
                .contains("final"),
            "duplicate final chunk must be rejected"
        );
    }

    #[test]
    fn assembler_refuses_a_crafted_row_before_allocating_it() {
        // At n = 200 a row of more than 6 entries is dense, so a hostile
        // id past the graph would index past its sidecar if the row were
        // built; each crafted row is refused first, with the assembly as
        // it was: same rows, same bytes, and the honest chunk still fits.
        let n = 200;
        let g = ShardedArenaGraph::from_arena(
            &crate::generators::tree_plus_random_edges(
                n,
                8 * n as u64,
                &mut SmallRng::seed_from_u64(9),
            ),
            1,
        );
        let chunks: Vec<SegSnapshotChunk> = g.segment(0).chunks(64).collect();
        let (at, i) = chunks
            .iter()
            .enumerate()
            .skip(1)
            .find_map(|(at, c)| Some((at, c.len_cap.iter().position(|&(l, _)| l > 6)?)))
            .expect("a dense row past the first chunk");
        type Craft = fn(NodeId, &mut [NodeId]);
        let crafts: [(&str, Craft); 3] = [
            ("is not strictly ascending", |_, row| row.swap(0, 1)),
            ("holds its own node", |u, row| {
                let p = row.partition_point(|&v| v < u).min(row.len() - 1);
                row[p] = u;
            }),
            ("names a node past the graph", |_, row| {
                *row.last_mut().unwrap() = NodeId(10_000);
            }),
        ];
        for (what, craft) in crafts {
            let mut asm = SegSnapshotAssembler::new(n);
            for c in &chunks[..at] {
                asm.accept(c).unwrap();
            }
            let (rows, bytes) = (asm.adj.lists(), asm.adj.memory_bytes());
            let mut crafted = chunks[at].clone();
            let lo: usize = crafted.len_cap[..i].iter().map(|&(l, _)| l as usize).sum();
            let hi = lo + crafted.len_cap[i].0 as usize;
            let u = NodeId(crafted.row_start + i as u32);
            craft(u, &mut crafted.entries[lo..hi]);
            let err = asm.accept(&crafted).unwrap_err();
            assert!(err.contains(&format!("row {} that {what}", u.0)), "{err}");
            assert_eq!(
                (asm.adj.lists(), asm.adj.memory_bytes()),
                (rows, bytes),
                "{what}"
            );
            for c in &chunks[at..] {
                asm.accept(c).unwrap();
            }
            let rebuilt = asm.finish();
            assert_eq!(rebuilt.chunks(64).collect::<Vec<_>>(), chunks, "{what}");
        }
    }

    #[test]
    fn plan_partitions_and_aligns() {
        let p = ShardPlan::new(10_000, 4);
        // 10 chunks of 1024 -> 3 chunks per shard -> 3072 nodes per span.
        assert_eq!(p.shard_nodes(), 3 * SHARD_ALIGN);
        assert_eq!(p.span(0), 0..3072);
        assert_eq!(p.span(3), 9216..10_000);
        assert_eq!(p.chunk_span(0), 0..3);
        assert_eq!(p.chunk_span(3), 9..10);
        // Spans tile 0..n exactly and ownership matches the span.
        let mut covered = 0;
        for s in 0..4 {
            for u in p.span(s) {
                assert_eq!(p.owner(NodeId(u as u32)), s);
                covered += 1;
            }
        }
        assert_eq!(covered, 10_000);
    }

    #[test]
    fn plan_with_more_shards_than_chunks_leaves_trailing_empty() {
        let p = ShardPlan::new(100, 8);
        assert_eq!(p.shard_nodes(), SHARD_ALIGN);
        assert_eq!(p.span(0), 0..100);
        for s in 1..8 {
            assert!(p.span(s).is_empty(), "shard {s} should be empty");
            assert!(p.chunk_span(s).is_empty());
        }
        assert_eq!(p.owner(NodeId(99)), 0);
    }

    #[test]
    fn matches_arena_graph_on_random_edges() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 5000; // > one chunk, so multiple shards are non-empty
        for shards in [1, 2, 3, 8] {
            let mut sharded = ShardedArenaGraph::new(n, shards);
            let mut arena = ArenaGraph::new(n);
            for _ in 0..20_000 {
                let a = NodeId(rng.random_range(0..n as u32));
                let b = NodeId(rng.random_range(0..n as u32));
                assert_eq!(arena.add_edge(a, b), sharded.add_edge(a, b));
            }
            assert_eq!(arena.m(), sharded.m());
            for u in arena.nodes() {
                assert_eq!(arena.neighbors(u), sharded.neighbors(u), "row {u:?}");
            }
            sharded.validate().unwrap();
        }
    }

    #[test]
    fn apply_half_edges_matches_one_at_a_time() {
        let n = 4000;
        let shards = 3;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut batch = ShardedArenaGraph::new(n, shards);
        let mut oracle = ShardedArenaGraph::new(n, shards);
        let plan = *batch.plan();
        for _round in 0..12 {
            // A synthetic round: random proposals in node order.
            let proposals: Vec<(NodeId, NodeId)> = (0..n)
                .map(|_| {
                    (
                        NodeId(rng.random_range(0..n as u32)),
                        NodeId(rng.random_range(0..n as u32)),
                    )
                })
                .collect();
            // Route both halves of each non-degenerate proposal.
            let mut mail: Vec<Vec<HalfEdge>> = vec![Vec::new(); shards];
            for (slot, &(a, b)) in proposals.iter().enumerate() {
                if a == b {
                    continue;
                }
                mail[plan.owner(a)].push((slot as u32, a, b));
                mail[plan.owner(b)].push((slot as u32, b, a));
            }
            let mut scratch = MergeScratch::default();
            let mut added = 0;
            for (s, entries) in mail.iter().enumerate() {
                added +=
                    batch.segments_mut()[s].apply_half_edges(&[entries.as_slice()], &mut scratch);
            }
            let mut oracle_added = 0;
            for &(a, b) in &proposals {
                oracle_added += oracle.add_edge(a, b) as u64;
            }
            assert_eq!(added, oracle_added);
            assert_eq!(batch.m(), oracle.m());
        }
        for u in batch.nodes() {
            assert_eq!(batch.neighbors(u), oracle.neighbors(u));
        }
        batch.validate().unwrap();
    }

    #[test]
    fn cow_clone_is_shared_until_owner_writes() {
        let mut g = ShardedArenaGraph::from_edges(4000, 4, [(0, 1), (2000, 3000)]);
        let snap = g.clone();
        for s in 0..4 {
            assert!(snap.shares_segment(&g, s), "shard {s} should share");
        }
        // A write whose endpoints live in shards 0 and 1 must un-share
        // exactly those segments (plus nothing else).
        assert!(g.add_edge(NodeId(5), NodeId(1500)));
        assert!(!snap.shares_segment(&g, 0));
        assert!(!snap.shares_segment(&g, 1));
        assert!(snap.shares_segment(&g, 2));
        assert!(snap.shares_segment(&g, 3));
        // The snapshot still reads the old round; the live graph advanced.
        assert_eq!(snap.m(), 2);
        assert_eq!(g.m(), 3);
        assert_eq!(snap.neighbors(NodeId(5)), &[] as &[NodeId]);
        assert_eq!(g.neighbors(NodeId(5)), &[NodeId(1500)]);
        snap.validate().unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn cow_snapshot_isolated_from_apply_phase() {
        // The engine's batch path (segments_mut + apply_half_edges) is the
        // hot write seam; a snapshot taken before a round must be
        // untouched by it.
        let n = 3000;
        let shards = 3;
        let mut g = ShardedArenaGraph::new(n, shards);
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..4000 {
            let a = NodeId(rng.random_range(0..n as u32));
            let b = NodeId(rng.random_range(0..n as u32));
            g.add_edge(a, b);
        }
        let snap = g.clone();
        let before_m = snap.m();
        let before_rows: Vec<Vec<NodeId>> =
            snap.nodes().map(|u| snap.neighbors(u).to_vec()).collect();
        // One synthetic applied round touching every shard.
        let plan = *g.plan();
        let mut mail: Vec<Vec<HalfEdge>> = vec![Vec::new(); shards];
        for slot in 0..2000u32 {
            let a = NodeId(rng.random_range(0..n as u32));
            let b = NodeId(rng.random_range(0..n as u32));
            if a == b {
                continue;
            }
            mail[plan.owner(a)].push((slot, a, b));
            mail[plan.owner(b)].push((slot, b, a));
        }
        let mut scratch = MergeScratch::default();
        for (s, seg) in g.segments_mut().into_iter().enumerate() {
            seg.apply_half_edges(&[mail[s].as_slice()], &mut scratch);
        }
        assert!(g.m() > before_m, "round added nothing; test is vacuous");
        assert_eq!(snap.m(), before_m, "snapshot edge count moved");
        for (u, row) in snap.nodes().zip(before_rows.iter()) {
            assert_eq!(snap.neighbors(u), &row[..], "snapshot row {u:?} moved");
        }
        snap.validate().unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn remove_member_matches_arena_oracle() {
        // Member removal/re-admission must be bit-identical to ArenaGraph
        // for any shard count, with m and the cached per-segment
        // m_canonical staying exact throughout (validate() recounts both).
        let mut rng = SmallRng::seed_from_u64(31);
        let n = 5000;
        for shards in [1, 2, 3, 8] {
            let mut sharded = ShardedArenaGraph::new(n, shards);
            let mut arena = ArenaGraph::new(n);
            for _ in 0..15_000 {
                let a = NodeId(rng.random_range(0..n as u32));
                let b = NodeId(rng.random_range(0..n as u32));
                arena.add_edge(a, b);
                sharded.add_edge(a, b);
            }
            for _ in 0..40 {
                let u = NodeId(rng.random_range(0..n as u32));
                if rng.random_range(0..3u32) == 0 {
                    let contacts: Vec<NodeId> = (0..4)
                        .map(|_| NodeId(rng.random_range(0..n as u32)))
                        .collect();
                    assert_eq!(
                        arena.admit_member(u, &contacts),
                        sharded.admit_member(u, &contacts),
                        "S={shards}: admit of {u:?} diverged"
                    );
                } else {
                    assert_eq!(
                        arena.remove_member(u),
                        sharded.remove_member(u),
                        "S={shards}: removal of {u:?} diverged"
                    );
                }
                assert_eq!(arena.m(), sharded.m(), "S={shards}");
            }
            for u in arena.nodes() {
                assert_eq!(
                    arena.neighbors(u),
                    sharded.neighbors(u),
                    "S={shards} row {u:?}"
                );
            }
            sharded.validate().unwrap();
        }
    }

    #[test]
    fn remove_member_cow_unshares_only_touched_segments() {
        // Node 0 (shard 0) has one contact in shard 2; removing it must
        // un-share exactly shards 0 and 2. Removing an isolated member is
        // a no-op that must leave every snapshot-shared segment shared.
        let mut g = ShardedArenaGraph::from_edges(4000, 4, [(0, 2500)]);
        let snap = g.clone();
        assert_eq!(g.remove_member(NodeId(100)), 0, "isolated member");
        for s in 0..4 {
            assert!(
                snap.shares_segment(&g, s),
                "no-op removal must not unshare {s}"
            );
        }
        assert_eq!(g.remove_member(NodeId(0)), 1);
        assert!(!snap.shares_segment(&g, 0));
        assert!(snap.shares_segment(&g, 1));
        assert!(!snap.shares_segment(&g, 2));
        assert!(snap.shares_segment(&g, 3));
        // The snapshot still sees the pre-churn world.
        assert_eq!(snap.m(), 1);
        assert_eq!(g.m(), 0);
        assert_eq!(snap.neighbors(NodeId(0)), &[NodeId(2500)]);
        assert!(g.neighbors(NodeId(0)).is_empty());
        snap.validate().unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn remove_member_keeps_m_canonical_exact_across_segments() {
        // Edges straddling shard boundaries stress the smaller-endpoint
        // attribution: the canonical count must come off the right segment.
        let n = 4000;
        let mut g = ShardedArenaGraph::from_edges(
            n,
            4,
            [(0, 1), (0, 2000), (1500, 2500), (3500, 100), (3998, 3999)],
        );
        let before: Vec<u64> = (0..4).map(|s| g.segment(s).m_canonical()).collect();
        assert_eq!(before.iter().sum::<u64>(), 5);
        // Node 0 owns edges (0,1) [canonical in shard 0] and (0,2000)
        // [canonical in shard 0 — smaller endpoint 0].
        assert_eq!(g.remove_member(NodeId(0)), 2);
        assert_eq!(g.segment(0).m_canonical(), before[0] - 2);
        // Node 3500 (shard 3) had edge to 100 (shard 0): canonical side is
        // the smaller endpoint 100 → shard 0's counter moves, not shard 3's.
        let s0 = g.segment(0).m_canonical();
        let s3 = g.segment(3).m_canonical();
        assert_eq!(g.remove_member(NodeId(3500)), 1);
        assert_eq!(g.segment(0).m_canonical(), s0 - 1);
        assert_eq!(g.segment(3).m_canonical(), s3);
        g.validate().unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn from_conversions_roundtrip() {
        let arena =
            crate::generators::tree_plus_random_edges(3000, 6000, &mut SmallRng::seed_from_u64(5));
        let sharded = ShardedArenaGraph::from_arena(&arena, 4);
        assert_eq!(sharded.m(), arena.m());
        let got: BTreeSet<Edge> = sharded.edges().collect();
        let want: BTreeSet<Edge> = arena.edges().collect();
        assert_eq!(got, want);
        sharded.validate().unwrap();
    }

    #[test]
    fn degenerate_sizes() {
        let g0 = ShardedArenaGraph::new(0, 4);
        assert_eq!((g0.n(), g0.m()), (0, 0));
        assert!(g0.is_complete());
        g0.validate().unwrap();
        let g1 = ShardedArenaGraph::new(1, 1);
        assert!(g1.is_complete());
        assert_eq!(g1.edges().count(), 0);
    }

    #[test]
    fn sampling_consumes_rng_like_arena() {
        // The propose phase must draw identically on either backend: every
        // draw is an index into the row, so equal rows give equal samples.
        let arena =
            crate::generators::tree_plus_random_edges(2500, 5000, &mut SmallRng::seed_from_u64(3));
        let sharded = ShardedArenaGraph::from_arena(&arena, 3);
        assert_eq!(arena.node_count(), sharded.node_count());
        for u in arena.nodes() {
            assert_eq!(arena.neighbor_row(u), sharded.neighbor_row(u));
        }
    }
}
