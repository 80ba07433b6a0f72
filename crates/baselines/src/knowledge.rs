//! The knowledge graph: who knows whose address.
//!
//! Resource-discovery baselines operate on *directed knowledge*: `u` knowing
//! `v`'s address does not imply the converse (the paper's processes keep
//! knowledge symmetric; Name Dropper and Random Pointer Jump do not).
//!
//! Storage is **arena-backed** ([`SliceArena`]): every node's contacts live
//! as two slices inside two shared contiguous buffers —
//!
//! * an **arrival-ordered** list, the O(1) sampling surface and the stable
//!   prefix the throttled sender's cursors index into (entries only
//!   append, so a cursor never sees its history shift), and
//! * a **sorted** companion, giving O(log deg) membership for dedup (O(1)
//!   once a list holds more than `n/32` contacts, through the arena's
//!   dense-row sidecar) and letting [`Knowledge::absorb`] merge a whole
//!   payload in ascending-id order.
//!
//! Memory is `O(pairs + n)` — 8 bytes per known pair, plus a dense list's
//! sidecar, which is no bigger than the list — with no `n`-bit bitmap for
//! *every* node (`n²/8` bytes before anything is learned, the term that
//! would cap baseline experiments in the tens of thousands of nodes).

use gossip_graph::{ArenaGraph, NodeId, SliceArena};

/// Directed "who-knows-whom" state for `n` nodes.
///
/// ```
/// use gossip_baselines::Knowledge;
/// use gossip_graph::{generators, NodeId};
/// let k = Knowledge::from_undirected(&generators::path(3));
/// assert!(k.knows(NodeId(0), NodeId(1)));
/// assert!(!k.knows(NodeId(0), NodeId(2)));
/// assert_eq!(k.known_pairs(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Knowledge {
    /// Arrival-ordered contact lists (sampling + stable prefixes).
    arrival: SliceArena,
    /// Sorted contact lists (membership + merge payloads).
    sorted: SliceArena,
    pairs: u64,
}

impl Knowledge {
    /// Empty knowledge (nobody knows anybody) over `n` nodes.
    pub fn new(n: usize) -> Self {
        Knowledge {
            arrival: SliceArena::new(n, n),
            sorted: SliceArena::new(n, n),
            pairs: 0,
        }
    }

    /// Initializes from an undirected graph: knowledge is symmetric, and
    /// learned edge by edge in canonical order (so each node's arrival
    /// order starts as its ascending row).
    pub fn from_undirected(g: &ArenaGraph) -> Self {
        let mut k = Knowledge::new(g.n());
        for e in g.edges() {
            k.learn(e.a, e.b);
            k.learn(e.b, e.a);
        }
        k
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.arrival.lists()
    }

    /// `u` learns `v`'s address. Returns `true` if it was news.
    /// Learning one's own address is a no-op.
    #[inline]
    pub fn learn(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        if self.sorted.insert_sorted(u.index(), v) {
            self.arrival.push(u.index(), v);
            self.pairs += 1;
            true
        } else {
            false
        }
    }

    /// Whether `u` knows `v` (a lookup in the sorted companion).
    #[inline]
    pub fn knows(&self, u: NodeId, v: NodeId) -> bool {
        self.sorted.contains_sorted(u.index(), v)
    }

    /// `u`'s contact list in arrival order — a stable prefix: existing
    /// entries never move, new ones only append.
    #[inline]
    pub fn contacts(&self, u: NodeId) -> &[NodeId] {
        self.arrival.slice(u.index())
    }

    /// `u`'s contact list in ascending id order — the payload shape
    /// [`Knowledge::absorb`] consumes.
    #[inline]
    pub fn sorted_contacts(&self, u: NodeId) -> &[NodeId] {
        self.sorted.slice(u.index())
    }

    /// Round-start snapshot of every node's sorted contact list, for the
    /// synchronous baselines (payloads must be what existed at round
    /// start, not what was learned this round). One `O(pairs)` copy of
    /// just the sorted arena — the arrival lists are never read from a
    /// snapshot, so cloning the whole `Knowledge` would double the cost.
    pub fn sorted_snapshot(&self) -> SliceArena {
        self.sorted.clone()
    }

    /// Total ordered known pairs (target: `n * (n-1)`).
    #[inline]
    pub fn known_pairs(&self) -> u64 {
        self.pairs
    }

    /// Whether every node knows every other node.
    #[inline]
    pub fn is_complete(&self) -> bool {
        let n = self.n() as u64;
        self.pairs == n * n.saturating_sub(1)
    }

    /// Merges an entire contact list (ascending id order, as produced by
    /// [`Knowledge::sorted_contacts`]) plus the sender's own address into
    /// `dst`'s knowledge. Returns how many addresses were new.
    pub fn absorb(&mut self, dst: NodeId, sender: NodeId, addresses: &[NodeId]) -> u64 {
        debug_assert!(
            addresses.windows(2).all(|w| w[0] < w[1]),
            "absorb payload must be sorted"
        );
        let mut gained = 0;
        for &v in addresses {
            gained += self.learn(dst, v) as u64;
        }
        gained += self.learn(dst, sender) as u64;
        gained
    }

    /// Bytes held by the contact storage (length-based, deterministic) —
    /// `O(pairs + n)`, with no quadratic bitmap term.
    pub fn memory_bytes(&self) -> usize {
        self.arrival.memory_bytes() + self.sorted.memory_bytes() + std::mem::size_of::<u64>()
    }

    /// Structural check for tests: pair counter consistent with rows, no
    /// self-knowledge, and the two layouts describe the same sets.
    pub fn validate(&self) -> Result<(), String> {
        let mut total = 0u64;
        for u in 0..self.n() {
            let arrival = self.arrival.slice(u);
            let sorted = self.sorted.slice(u);
            if arrival.len() != sorted.len() {
                return Err(format!("node {u}: arrival/sorted length mismatch"));
            }
            if !sorted.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("node {u}: companion not strictly sorted"));
            }
            let mut check: Vec<NodeId> = arrival.to_vec();
            check.sort_unstable();
            if check != sorted {
                return Err(format!("node {u}: arrival and sorted sets differ"));
            }
            if sorted.binary_search(&NodeId::new(u)).is_ok() {
                return Err(format!("node {u} knows itself"));
            }
            total += arrival.len() as u64;
        }
        if total != self.pairs {
            return Err(format!("pair counter {} != row total {total}", self.pairs));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn from_undirected_is_symmetric() {
        let g = generators::path(4);
        let k = Knowledge::from_undirected(&g);
        assert!(k.knows(NodeId(0), NodeId(1)));
        assert!(k.knows(NodeId(1), NodeId(0)));
        assert_eq!(k.known_pairs(), 6);
        k.validate().unwrap();
    }

    #[test]
    fn learn_dedup_and_self() {
        let mut k = Knowledge::new(3);
        assert!(k.learn(NodeId(0), NodeId(1)));
        assert!(!k.learn(NodeId(0), NodeId(1)));
        assert!(!k.learn(NodeId(0), NodeId(0)));
        assert_eq!(k.known_pairs(), 1);
    }

    #[test]
    fn completeness() {
        let g = generators::complete(4);
        let k = Knowledge::from_undirected(&g);
        assert!(k.is_complete());
        let p = Knowledge::from_undirected(&generators::path(4));
        assert!(!p.is_complete());
    }

    #[test]
    fn arrival_order_is_a_stable_prefix() {
        // The throttled sender indexes cursors into this order; it must be
        // append-only even when learned ids are out of order.
        let mut k = Knowledge::new(6);
        for v in [5u32, 2, 4, 1] {
            k.learn(NodeId(0), NodeId(v));
        }
        assert_eq!(
            k.contacts(NodeId(0)),
            &[NodeId(5), NodeId(2), NodeId(4), NodeId(1)]
        );
        assert_eq!(
            k.sorted_contacts(NodeId(0)),
            &[NodeId(1), NodeId(2), NodeId(4), NodeId(5)]
        );
        k.validate().unwrap();
    }

    #[test]
    fn absorb_merges_and_counts() {
        let mut k = Knowledge::new(5);
        k.learn(NodeId(1), NodeId(2));
        k.learn(NodeId(1), NodeId(3));
        // Node 0 absorbs node 1's contacts {2, 3} + sender 1 itself.
        let payload = k.sorted_contacts(NodeId(1)).to_vec();
        let gained = k.absorb(NodeId(0), NodeId(1), &payload);
        assert_eq!(gained, 3);
        assert!(k.knows(NodeId(0), NodeId(1)));
        assert!(k.knows(NodeId(0), NodeId(2)));
        assert!(k.knows(NodeId(0), NodeId(3)));
        // Absorbing again gains nothing.
        let payload = k.sorted_contacts(NodeId(1)).to_vec();
        assert_eq!(k.absorb(NodeId(0), NodeId(1), &payload), 0);
        k.validate().unwrap();
    }

    #[test]
    fn absorb_skips_own_address() {
        let mut k = Knowledge::new(3);
        k.learn(NodeId(1), NodeId(0)); // sender knows the destination
        let payload = k.sorted_contacts(NodeId(1)).to_vec();
        let gained = k.absorb(NodeId(0), NodeId(1), &payload);
        // 0 must not "learn" 0; only the sender 1 is news.
        assert_eq!(gained, 1);
        assert!(!k.knows(NodeId(0), NodeId(0)));
        k.validate().unwrap();
    }

    #[test]
    fn memory_is_linear_in_pairs_not_quadratic_in_n() {
        // At n = 4096 the old per-node-bitmap layout held n²/8 = 2 MiB
        // before the first pair; the arena with a path's knowledge must be
        // orders of magnitude below that.
        let n = 4096;
        let k = Knowledge::from_undirected(&generators::path(n));
        assert!(
            k.memory_bytes() < n * n / 8 / 4,
            "knowledge uses {} bytes",
            k.memory_bytes()
        );
    }
}
