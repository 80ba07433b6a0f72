//! The one two-phase round loop every baseline runs on: a
//! [`ProtocolKernel`] decides *whom* to send *which* [`Share`], and
//! [`KernelBaseline`] interprets the shares against a [`Knowledge`] state
//! with synchronous semantics and bit accounting.
//!
//! * **Phase 1 — decide.** Every node's `on_round` runs against a
//!   round-start [`LocalView`] (its own arrival-ordered contacts, or its
//!   row of a fixed topology for flooding), its own [`NodeState`], and the
//!   `(seed, round, node)` stream. Every share of every node is collected.
//! * **Phase 2 — deliver.** Shares are delivered in `(sender, emission)`
//!   order. Whole-list payloads are read from a round-start snapshot, so
//!   nobody forwards an address learned this same round; windows index the
//!   arrival-ordered lists, whose prefixes never move.

use crate::algorithm::{id_bits, DiscoveryAlgorithm, RoundIO};
use crate::knowledge::Knowledge;
use gossip_core::rng::stream_rng;
use gossip_core::{
    Effects, FloodingKernel, LocalView, NameDropperKernel, NodeState, PointerJumpKernel,
    ProtocolKernel, RngChooser, Share, ThrottledKernel,
};
use gossip_graph::{ArenaGraph, NodeId};

/// A discovery baseline: kernel `K` run over a [`Knowledge`] state.
#[derive(Clone, Debug)]
pub struct KernelBaseline<K> {
    kernel: K,
    knowledge: Knowledge,
    /// The fixed graph whose rows are the nodes' views; `None` means each
    /// node sees its own (growing) contact list.
    topology: Option<ArenaGraph>,
    /// Per-node kernel state. For the throttled kernel: node `u`'s entry
    /// `v` counts how many of `u`'s contacts (in arrival order) have been
    /// shipped to `v` — O(n²) u32s, the cost of coordination the paper
    /// mentions.
    states: Vec<NodeState>,
    seed: u64,
    round: u64,
    id_bits: u64,
}

/// Name Dropper (Harchol-Balter, Leighton, Lewin; PODC 1999), the paper's
/// primary point of comparison: "in each round, each node chooses a random
/// neighbor and sends all the IP addresses it knows." `O(log² n)` rounds,
/// but a single message can carry `Θ(n)` addresses.
pub type NameDropper = KernelBaseline<NameDropperKernel>;

/// Random Pointer Jump, the pull-flavored baseline from the same lineage:
/// "each node gets to know all the neighbors of a random neighbor in each
/// step."
pub type PointerJump = KernelBaseline<PointerJumpKernel>;

/// Bandwidth-throttled Name Dropper. The paper (§1, Applications) notes
/// that Θ(n)-address messages can be "spread ... over a linear number of
/// rounds, but this requires coordination and maintaining state": each
/// node sends at most `budget` addresses per round to a random contact and
/// keeps a per-destination cursor so it never re-sends one.
pub type ThrottledNameDropper = KernelBaseline<ThrottledKernel>;

/// Deterministic flooding: every node sends everything it knows to all of
/// its **original** neighbors each round. Completes in `diameter(G_0) - 1`
/// rounds, the round-complexity envelope, at maximum bandwidth. (Flooding
/// over the growing knowledge graph would finish in O(1) rounds while
/// sending Θ(n²) messages — not a meaningful baseline.)
pub type Flooding = KernelBaseline<FloodingKernel>;

impl<K: ProtocolKernel> KernelBaseline<K> {
    /// Runs `kernel` from the given knowledge; every node's view is its own
    /// contact list.
    pub fn from_kernel(kernel: K, knowledge: Knowledge, seed: u64) -> Self {
        let n = knowledge.n();
        KernelBaseline {
            states: vec![kernel.initial_state(n); n],
            kernel,
            knowledge,
            topology: None,
            seed,
            round: 0,
            id_bits: id_bits(n),
        }
    }
}

impl NameDropper {
    /// Starts from the given knowledge state.
    pub fn new(knowledge: Knowledge, seed: u64) -> Self {
        Self::from_kernel(NameDropperKernel, knowledge, seed)
    }
}

impl PointerJump {
    /// Starts from the given knowledge state.
    pub fn new(knowledge: Knowledge, seed: u64) -> Self {
        Self::from_kernel(PointerJumpKernel, knowledge, seed)
    }
}

impl ThrottledNameDropper {
    /// Starts from the given knowledge; each message carries at most
    /// `budget` addresses (plus the implicit sender address).
    pub fn new(knowledge: Knowledge, budget: usize, seed: u64) -> Self {
        assert!(budget >= 1, "budget must be >= 1");
        Self::from_kernel(ThrottledKernel { budget }, knowledge, seed)
    }
}

impl Flooding {
    /// Floods over `g0`, starting from its adjacency as initial knowledge.
    pub fn new(g0: &ArenaGraph) -> Self {
        let mut flooding = Self::from_kernel(FloodingKernel, Knowledge::from_undirected(g0), 0);
        flooding.topology = Some(g0.clone());
        flooding
    }
}

impl<K: ProtocolKernel> DiscoveryAlgorithm for KernelBaseline<K> {
    fn step(&mut self) -> RoundIO {
        // Phase 1: nothing is delivered until every node has decided, so
        // each kernel sees round-start state by construction.
        let mut sends: Vec<(NodeId, NodeId, Share)> = Vec::with_capacity(self.states.len());
        let mut effects = Effects::default();
        for (u, state) in self.states.iter_mut().enumerate() {
            let me = NodeId::new(u);
            let contacts = match &self.topology {
                Some(g0) => g0.neighbors(me),
                None => self.knowledge.contacts(me),
            };
            let mut rng = stream_rng(self.seed, self.round, u as u64);
            effects.clear();
            self.kernel.on_round(
                state,
                &LocalView { me, contacts },
                &mut RngChooser(&mut rng),
                &mut effects,
            );
            sends.extend(effects.shares.iter().map(|&(to, share)| (me, to, share)));
        }
        // Round-start sorted lists, one O(pairs) clone — taken only for
        // kernels that declare unbounded messages: a bounded kernel ships
        // windows, which need no snapshot.
        let lists =
            (self.kernel.max_message_ids().is_none()).then(|| self.knowledge.sorted_snapshot());
        #[expect(
            clippy::expect_used,
            reason = "only kernels declaring unbounded messages share whole lists, and they get the snapshot"
        )]
        let whole_list = |of: NodeId| {
            lists
                .as_ref()
                .expect("a kernel that declares bounded messages shared a whole list")
                .slice(of.index())
        };
        // Phase 2: the one place a `Share` gets its delivery and its cost.
        // A payload of `k` addresses costs `k + 1` ids: the sender's own
        // address rides along.
        let mut io = RoundIO::default();
        for (from, to, share) in sends {
            let (learned, payload_ids, requests) = match share {
                Share::KnownList => {
                    let list = whole_list(from);
                    (self.knowledge.absorb(to, from, list), list.len(), 0)
                }
                // One extra message, the one-id request; the requester
                // absorbs the reply.
                Share::PullRequest => {
                    let list = whole_list(to);
                    (self.knowledge.absorb(from, to, list), list.len(), 1)
                }
                Share::Slice { start, len } => {
                    let (start, len) = (start as usize, len as usize);
                    let mut learned = self.knowledge.learn(to, from) as u64;
                    for i in start..start + len {
                        let address = self.knowledge.contacts(from)[i];
                        learned += self.knowledge.learn(to, address) as u64;
                    }
                    (learned, len, 0)
                }
            };
            let msg_bits = (payload_ids as u64 + 1) * self.id_bits;
            io.messages += 1 + requests;
            io.bits += msg_bits + requests * self.id_bits;
            io.max_message_bits = io.max_message_bits.max(msg_bits);
            io.learned += learned;
        }
        self.round += 1;
        io
    }

    fn knowledge(&self) -> &Knowledge {
        &self.knowledge
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn name(&self) -> &'static str {
        self.kernel.name()
    }
}
