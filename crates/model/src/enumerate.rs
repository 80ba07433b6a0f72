//! Choice-tree enumeration: every outcome a kernel can produce for one
//! node in one round.
//!
//! The kernel seam makes this possible: a [`ProtocolKernel`] draws every
//! random decision through [`Chooser::choose`], so substituting a chooser
//! that *replays a prefix and records the first unconstrained domain*
//! turns one pure function into an enumerable choice tree. Depth-first
//! search over prefixes visits each leaf exactly once. Deduplicated, the
//! leaves are the node's **menu** — the set of distinct effect bundles it
//! can emit, each tagged with a witness choice vector for counterexample
//! traces ([`node_menu`], what the checker scans). Weighed by the inverse
//! product of the domains drawn on the way, they are the node's exact
//! one-round distribution (what [`crate::markov`] convolves).

use crate::instance::MAX_N;
use gossip_core::{Chooser, Effects, NodeState, NodeView, ProtocolKernel, Share};
use gossip_graph::NodeId;

/// How the model world interprets views and effects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum World {
    /// The batch engines' world: state is an undirected graph, kernels may
    /// read a peer's row (two-hop walks), `connect` adds an edge.
    Graph,
    /// The message-passing world: state is directed knowledge, a node sees
    /// only its own row (peer probes panic, as in the simulator), payload
    /// descriptors move contact lists.
    Knowledge,
}

/// A per-node view over the model state's contact rows.
pub(crate) struct ModelView<'a> {
    pub me: NodeId,
    pub rows: &'a [Vec<NodeId>],
    pub world: World,
}

impl NodeView for ModelView<'_> {
    fn me(&self) -> NodeId {
        self.me
    }
    fn contacts(&self) -> &[NodeId] {
        &self.rows[self.me.index()]
    }
    #[expect(
        clippy::panic,
        reason = "`NodeView` documents this panic for worlds without remote \
                  visibility; the knowledge world mirrors the message-passing \
                  simulator, which has none"
    )]
    fn peer_contacts(&self, v: NodeId) -> &[NodeId] {
        match self.world {
            World::Graph => &self.rows[v.index()],
            World::Knowledge => panic!("knowledge world has no remote visibility"),
        }
    }
}

/// Chooser that replays a recorded prefix, then flags the first
/// unconstrained draw's domain instead of choosing.
struct ReplayChooser<'a> {
    prefix: &'a [usize],
    pos: usize,
    /// Domain size of the first draw past the prefix, if any.
    overflow: Option<usize>,
}

impl Chooser for ReplayChooser<'_> {
    fn choose(&mut self, n: usize) -> usize {
        assert!(n > 0, "kernel drew from an empty domain");
        if self.pos < self.prefix.len() {
            let c = self.prefix[self.pos];
            self.pos += 1;
            c
        } else {
            // Past the prefix: record the first free domain (the DFS
            // branches on it) and return an arbitrary in-range value —
            // the run's effects are discarded.
            if self.overflow.is_none() {
                self.overflow = Some(n);
            }
            0
        }
    }
}

/// One reachable per-node round outcome: the choices that produce it and
/// the (canonicalized) effects it emits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The choice vector (one entry per `choose` call) that witnesses
    /// this outcome.
    pub choices: Vec<usize>,
    /// Proposed edges, normalized `(min, max)`, sorted, deduplicated.
    pub connects: Vec<(u32, u32)>,
    /// Outgoing payload descriptors, sorted by destination.
    pub shares: Vec<(u32, Share)>,
    /// The node's protocol state after the round — identical to the
    /// round-start state for stateless kernels, the advanced cursor
    /// vector for stateful ones. Part of the dedup key: two runs with
    /// the same wire effects but different post-states are distinct
    /// outcomes.
    pub state_after: NodeState,
}

/// Canonical `(connects, shares)` pair extracted from raw effects.
type CanonicalEffects = (Vec<(u32, u32)>, Vec<(u32, Share)>);

pub(crate) fn canonicalize(effects: &Effects) -> CanonicalEffects {
    let mut connects: Vec<(u32, u32)> = effects
        .connects
        .as_slice()
        .iter()
        .map(|&(a, b)| (a.0.min(b.0), a.0.max(b.0)))
        .collect();
    connects.sort_unstable();
    connects.dedup();
    let mut shares: Vec<(u32, Share)> = effects.shares.iter().map(|&(to, s)| (to.0, s)).collect();
    shares.sort_unstable_by_key(|&(to, s)| {
        let (tag, a, b) = match s {
            Share::KnownList => (0u8, 0, 0),
            Share::PullRequest => (1, 0, 0),
            Share::Slice { start, len } => (2, start, len),
        };
        (to, tag, a, b)
    });
    (connects, shares)
}

/// Depth-first walk over the choice tree from `prefix`: runs the kernel,
/// and either hands the finished run to `leaf` or branches on the first
/// unconstrained domain. `product` is the product of the domains drawn
/// along `prefix`.
fn explore<K, F>(
    kernel: &K,
    view: &ModelView<'_>,
    state: &NodeState,
    prefix: &mut Vec<usize>,
    product: u64,
    leaf: &mut F,
) where
    K: ProtocolKernel + ?Sized,
    F: FnMut(&[usize], &Effects, NodeState, u64),
{
    assert!(
        prefix.len() < 16,
        "kernel drew more than 16 choices in one round"
    );
    let mut effects = Effects::default();
    let mut chooser = ReplayChooser {
        prefix,
        pos: 0,
        overflow: None,
    };
    // Each enumeration run mutates a fresh copy of the round-start state;
    // the copy at a leaf is the outcome's post-state.
    let mut st = state.clone();
    kernel.on_round(&mut st, view, &mut chooser, &mut effects);
    match chooser.overflow {
        None => leaf(prefix, &effects, st, product),
        Some(domain) => {
            for c in 0..domain {
                prefix.push(c);
                explore(kernel, view, state, prefix, product * domain as u64, leaf);
                prefix.pop();
            }
        }
    }
}

/// Visits every leaf of node `u`'s choice tree once, in ascending choice
/// order: `leaf` gets the choice vector, the raw effects, the node's
/// post-state and the product of the domains drawn on the way — every
/// draw is uniform, so the leaf's probability is `1 / product`.
pub(crate) fn walk_leaves<K: ProtocolKernel + ?Sized>(
    kernel: &K,
    world: World,
    rows: &[Vec<NodeId>],
    u: usize,
    state: &NodeState,
    leaf: &mut impl FnMut(&[usize], &Effects, NodeState, u64),
) {
    let view = ModelView {
        me: NodeId::new(u),
        rows,
        world,
    };
    explore(kernel, &view, state, &mut Vec::new(), 1, leaf);
}

/// Every distinct outcome node `u` can produce this round from protocol
/// state `state`, with witness choices. Stateless kernels pass
/// [`NodeState::Stateless`]; stateful ones (the throttled Name Dropper's
/// per-destination cursors) pass the node's round-start state, and each
/// outcome carries the post-state for the checker's joint encoding.
pub fn node_menu<K: ProtocolKernel + ?Sized>(
    kernel: &K,
    world: World,
    rows: &[Vec<NodeId>],
    u: usize,
    state: &NodeState,
) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = Vec::new();
    walk_leaves(
        kernel,
        world,
        rows,
        u,
        state,
        &mut |choices, effects, st, _| {
            let (connects, shares) = canonicalize(effects);
            // Deduplicate by effects + post-state; keep the first witness
            // choice vector.
            if !out
                .iter()
                .any(|o| o.connects == connects && o.shares == shares && o.state_after == st)
            {
                out.push(Outcome {
                    choices: choices.to_vec(),
                    connects,
                    shares,
                    state_after: st,
                });
            }
        },
    );
    out
}

/// Expands packed state rows into per-node ascending contact lists — the
/// slices kernels see through [`ModelView`].
pub(crate) fn rows_to_lists(rows: &[u8; MAX_N], n: usize) -> Vec<Vec<NodeId>> {
    (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| rows[i] >> j & 1 == 1)
                .map(NodeId::new)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::{NameDropperKernel, PullKernel, PushKernel};

    fn lists(rows: &[&[u32]]) -> Vec<Vec<NodeId>> {
        rows.iter()
            .map(|r| r.iter().copied().map(NodeId).collect())
            .collect()
    }

    #[test]
    fn push_menu_covers_all_pairs() {
        // Node 0 with contacts {1, 2}: draws (i, j) from 2x2 → outcomes
        // are connect(1,2) (two witnesses, deduped) and the empty outcome
        // (i == j, two witnesses).
        let rows = lists(&[&[1, 2], &[0], &[0]]);
        let menu = node_menu(&PushKernel, World::Graph, &rows, 0, &NodeState::Stateless);
        assert_eq!(menu.len(), 2);
        assert!(menu.iter().any(|o| o.connects == vec![(1, 2)]));
        assert!(menu.iter().any(|o| o.connects.is_empty()));
    }

    #[test]
    fn pull_menu_walks_two_hops() {
        // Path 0-1-2: node 0 walks to 1, then to one of {0, 2}; landing on
        // itself yields no proposal, landing on 2 connects 0-2.
        let rows = lists(&[&[1], &[0, 2], &[1]]);
        let menu = node_menu(&PullKernel, World::Graph, &rows, 0, &NodeState::Stateless);
        assert_eq!(menu.len(), 2);
        assert!(menu.iter().any(|o| o.connects == vec![(0, 2)]));
        assert!(menu.iter().any(|o| o.connects.is_empty()));
    }

    #[test]
    fn isolated_node_has_single_empty_outcome() {
        let rows = lists(&[&[]]);
        let menu = node_menu(&PushKernel, World::Graph, &rows, 0, &NodeState::Stateless);
        assert_eq!(menu.len(), 1);
        assert!(menu[0].choices.is_empty() && menu[0].connects.is_empty());
    }

    #[test]
    fn name_dropper_menu_targets_each_contact() {
        let rows = lists(&[&[1, 2], &[0], &[0]]);
        let menu = node_menu(
            &NameDropperKernel,
            World::Knowledge,
            &rows,
            0,
            &NodeState::Stateless,
        );
        assert_eq!(menu.len(), 2);
        let dests: Vec<u32> = menu.iter().map(|o| o.shares[0].0).collect();
        assert!(dests.contains(&1) && dests.contains(&2));
    }
}
