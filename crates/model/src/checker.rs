//! The bounded exhaustive checker: BFS over the joint state space of one
//! instance, scanning every reachable state for safety violations and
//! stuck states, with minimal counterexample traces.
//!
//! A joint state packs the per-node contact rows **and**, for stateful
//! kernels, the per-node cursor slots into one `u128` key: 8 bits of row
//! per node, then 3 bits per `(node, destination)` cursor, then the
//! position in the bounded churn script. For each reachable state the
//! checker derives every node's outcome *menu* (see [`crate::enumerate`]),
//! scans each outcome against the safety properties, checks that some
//! outcome still makes progress (liveness: no reachable incomplete state
//! is stuck), and folds the menus node-by-node — deduplicating
//! intermediate accumulations, which is sound because row effects are
//! monotone bit-unions over the round-start rows and each node writes
//! only its own cursor slots — to produce the successor set. When a churn
//! script is installed, the adversary may additionally fire the next
//! membership event instead of a round at any point, so every
//! interleaving of rounds and join/leave events is explored. BFS parent
//! pointers make every reported counterexample minimal in steps.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::enumerate::{node_menu, rows_to_lists, Outcome, World};
use crate::instance::{all_instances, Instance, MAX_N};
use gossip_core::{NodeState, ProtocolKernel, Share};
use gossip_graph::NodeId;

/// Which round schedules the adversary may play.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Every node's chosen outcome is delivered every round.
    Lossless,
    /// The adversary may additionally drop any node's entire round
    /// (crash-like omission: the node neither sends nor advances its
    /// protocol state); dropping everyone forever is the unfair schedule
    /// the liveness check deliberately ignores.
    Omission,
}

impl Schedule {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Lossless => "lossless",
            Schedule::Omission => "omission",
        }
    }
}

/// One membership event in a bounded churn script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Node departs: its row is scrubbed from the whole world and its own
    /// protocol state is forgotten. Other nodes' cursor slots *toward*
    /// the departed node are deliberately retained — there is no failure
    /// detector, so peers cannot know to reset; stale local memory is
    /// exactly what the churn safety sweep must prove harmless.
    Leave {
        /// The departing node.
        node: u32,
    },
    /// A previously departed node re-joins with a bootstrap contact set
    /// (bitmask over node ids); bootstrap edges are symmetric and the
    /// node's protocol state starts fresh.
    Rejoin {
        /// The re-joining node.
        node: u32,
        /// Bootstrap contact bitmask.
        contacts: u8,
    },
}

/// Knobs for one exhaustive run.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// The round schedule family the adversary plays.
    pub schedule: Schedule,
    /// BFS depth bound (rounds plus churn events).
    pub max_rounds: usize,
    /// Verify the no-stuck-state liveness property. On by default; churn
    /// sweeps turn it off because a leave can disconnect the instance,
    /// making completion unreachable by design — re-discovery *time*
    /// under churn is the bench harness's domain, not a model theorem.
    pub check_liveness: bool,
    /// Bounded membership script. The adversary fires the next event
    /// instead of a round whenever it likes (in script order), so every
    /// interleaving of rounds and events is explored. Empty = static
    /// membership.
    pub script: Vec<ChurnEvent>,
}

impl CheckConfig {
    /// Static-membership config with liveness checking on.
    pub fn new(schedule: Schedule, max_rounds: usize) -> Self {
        CheckConfig {
            schedule,
            max_rounds,
            check_liveness: true,
            script: Vec::new(),
        }
    }
}

/// Aggregate exploration statistics for one or more checked instances.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// Distinct joint states visited.
    pub states: u64,
    /// Successor transitions enumerated (after intermediate dedup).
    pub transitions: u64,
    /// Deepest BFS level reached (rounds + churn events from the initial
    /// state).
    pub max_depth: usize,
    /// True if any instance hit the round bound with states unexplored.
    pub truncated: bool,
    /// Largest per-message payload (in node ids) any enumerated message
    /// carried — the empirical side of the `O(log n)`-bits claim.
    pub max_payload_ids: u64,
}

impl CheckStats {
    /// Fold another instance's stats into this aggregate.
    pub fn absorb(&mut self, other: CheckStats) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.truncated |= other.truncated;
        self.max_payload_ids = self.max_payload_ids.max(other.max_payload_ids);
    }
}

/// What went wrong, for a counterexample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A node proposed a connection involving an id outside its closed
    /// two-hop view (or outside the world entirely) — a phantom contact.
    PhantomConnect {
        /// The proposing node.
        node: u32,
        /// Proposed endpoints (normalized `min, max`).
        a: u32,
        /// Second endpoint.
        b: u32,
    },
    /// A node addressed a payload to someone outside its contact row.
    PhantomShare {
        /// The sending node.
        node: u32,
        /// The phantom destination.
        to: u32,
    },
    /// A message carried more node ids than the kernel's declared
    /// [`ProtocolKernel::max_message_ids`] budget.
    OverBudget {
        /// The sending node.
        node: u32,
        /// Ids the message carried.
        ids: u64,
        /// The declared budget it exceeded.
        budget: u64,
    },
    /// An incomplete state where no outcome of any node makes progress:
    /// by monotonicity no schedule can ever finish from here.
    Stuck,
}

/// One step of a counterexample trace.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Contact rows at the start of the step.
    pub state: [u8; MAX_N],
    /// One line per node for a round step (the outcome the adversary
    /// scheduled, or a drop), or a single line for a membership event.
    pub actions: Vec<String>,
}

/// A minimal failing run: the instance, the adversary's schedule step by
/// step, and the violation at the end.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The starting topology.
    pub instance: Instance,
    /// The kernel's registry name.
    pub kernel: &'static str,
    /// The world the kernel was checked in.
    pub world: World,
    /// The schedule family the adversary played.
    pub schedule: Schedule,
    /// The churn script in effect (empty for static membership).
    pub script: Vec<ChurnEvent>,
    /// The property that failed.
    pub violation: Violation,
    /// Description of the offending node outcome (empty for [`Violation::Stuck`]).
    pub offender: String,
    /// Contact rows of the violating state.
    pub state: [u8; MAX_N],
    /// Minimal (in steps) path from the initial state to [`Self::state`].
    pub trace: Vec<TraceStep>,
}

fn rows_str(rows: &[u8; MAX_N], n: usize) -> String {
    (0..n)
        .map(|i| {
            let row: Vec<String> = (0..n)
                .filter(|&j| rows[i] >> j & 1 == 1)
                .map(|j| j.to_string())
                .collect();
            format!("{i}:{{{}}}", row.join(","))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model-check violation: kernel={} world={:?} schedule={}",
            self.kernel,
            self.world,
            self.schedule.name()
        )?;
        writeln!(f, "instance: {}", self.instance.describe())?;
        if !self.script.is_empty() {
            writeln!(f, "churn script: {:?}", self.script)?;
        }
        writeln!(f, "violation: {:?}", self.violation)?;
        if !self.offender.is_empty() {
            writeln!(f, "offender: {}", self.offender)?;
        }
        writeln!(f, "trace ({} steps to reach the state):", self.trace.len())?;
        for (r, step) in self.trace.iter().enumerate() {
            writeln!(
                f,
                "  step {}: {}",
                r + 1,
                rows_str(&step.state, self.instance.n)
            )?;
            for a in &step.actions {
                writeln!(f, "    {a}")?;
            }
        }
        write!(
            f,
            "state at violation: {}",
            rows_str(&self.state, self.instance.n)
        )
    }
}

/// Bits reserved per packed cursor slot.
const CURSOR_BITS: u32 = 3;
/// Bit offset of the cursor block in a packed key.
const CURSOR_BASE: u32 = 8 * MAX_N as u32;
/// Bit offset of the churn-script position in a packed key.
const POS_BASE: u32 = CURSOR_BASE + (MAX_N * MAX_N) as u32 * CURSOR_BITS;

/// The full joint protocol state: contact rows plus per-node cursor
/// slots (all-zero, and ignored, for stateless kernels).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Joint {
    rows: [u8; MAX_N],
    cursors: [[u8; MAX_N]; MAX_N],
}

fn pack(j: &Joint, pos: usize) -> u128 {
    let mut key = 0u128;
    for (i, &r) in j.rows.iter().enumerate() {
        key |= (r as u128) << (8 * i);
    }
    for (u, row) in j.cursors.iter().enumerate() {
        for (v, &c) in row.iter().enumerate() {
            assert!(
                c < 1 << CURSOR_BITS,
                "cursor value {c} exceeds the {CURSOR_BITS}-bit joint encoding"
            );
            key |= (c as u128) << (CURSOR_BASE as usize + (u * MAX_N + v) * CURSOR_BITS as usize);
        }
    }
    key | (pos as u128) << POS_BASE
}

fn unpack(key: u128) -> (Joint, usize) {
    let mut j = Joint {
        rows: [0; MAX_N],
        cursors: [[0; MAX_N]; MAX_N],
    };
    for (i, r) in j.rows.iter_mut().enumerate() {
        *r = (key >> (8 * i)) as u8;
    }
    for (u, row) in j.cursors.iter_mut().enumerate() {
        for (v, c) in row.iter_mut().enumerate() {
            *c = (key >> (CURSOR_BASE as usize + (u * MAX_N + v) * CURSOR_BITS as usize)) as u8
                & ((1 << CURSOR_BITS) - 1);
        }
    }
    (j, (key >> POS_BASE) as usize)
}

/// Node `u`'s protocol state inside `j`, in the kernel's representation.
fn node_state(j: &Joint, n: usize, u: usize, stateful: bool) -> NodeState {
    if stateful {
        NodeState::Cursors(j.cursors[u][..n].iter().map(|&c| c as u32).collect())
    } else {
        NodeState::Stateless
    }
}

/// Writes an outcome's post-state back into the joint cursor block.
fn store_state(j: &mut Joint, u: usize, state: &NodeState) {
    if let NodeState::Cursors(c) = state {
        for (v, &cv) in c.iter().enumerate() {
            j.cursors[u][v] = cv as u8;
        }
    }
}

/// Applies one membership event. Rows are scrubbed/bootstrapped
/// symmetrically; the node's own protocol state resets to the kernel's
/// initial state, while peers' cursor slots toward it are retained (no
/// failure detector — see [`ChurnEvent`]).
fn apply_event(j: &mut Joint, n: usize, ev: ChurnEvent, init: &[u8; MAX_N]) {
    match ev {
        ChurnEvent::Leave { node } => {
            let v = node as usize;
            j.rows[v] = 0;
            j.cursors[v] = *init;
            for u in 0..n {
                j.rows[u] &= !(1 << v);
            }
        }
        ChurnEvent::Rejoin { node, contacts } => {
            let v = node as usize;
            debug_assert_eq!(j.rows[v], 0, "rejoin of a present node");
            j.rows[v] = contacts & !(1 << v);
            j.cursors[v] = *init;
            for w in 0..n {
                if contacts >> w & 1 == 1 && w != v {
                    j.rows[w] |= 1 << v;
                }
            }
        }
    }
}

/// Bitmask of nodes present after the first `pos` script events.
fn present_mask(n: usize, script: &[ChurnEvent], pos: usize) -> u8 {
    let mut mask = ((1u16 << n) - 1) as u8;
    for ev in &script[..pos] {
        match *ev {
            ChurnEvent::Leave { node } => mask &= !(1 << node),
            ChurnEvent::Rejoin { node, .. } => mask |= 1 << node,
        }
    }
    mask
}

/// Apply one node's outcome on top of `acc`, reading round-start data
/// from `start`/`lists` (synchronous semantics: all nodes act on the
/// round-start world, deliveries union; each node owns its cursor slots).
/// Out-of-range ids are skipped here — the safety scan reports them;
/// application stays total.
fn apply_outcome(
    start: &Joint,
    acc: &mut Joint,
    n: usize,
    u: usize,
    o: &Outcome,
    lists: &[Vec<NodeId>],
) {
    for &(a, b) in &o.connects {
        let (a, b) = (a as usize, b as usize);
        if a >= n || b >= n || a == b {
            continue;
        }
        acc.rows[a] |= 1 << b;
        acc.rows[b] |= 1 << a;
    }
    for &(to, s) in &o.shares {
        let to = to as usize;
        if to >= n {
            continue;
        }
        match s {
            Share::KnownList => {
                acc.rows[to] |= (start.rows[u] | 1 << u) & !(1 << to);
            }
            Share::PullRequest => {
                acc.rows[u] |= (start.rows[to] | 1 << to) & !(1 << u);
            }
            Share::Slice { start: s0, len } => {
                let row = &lists[u];
                let lo = (s0 as usize).min(row.len());
                let hi = (s0 as usize).saturating_add(len as usize).min(row.len());
                let mut bits = 1u8 << u;
                for v in &row[lo..hi] {
                    bits |= 1 << v.index();
                }
                acc.rows[to] |= bits & !(1 << to);
            }
        }
    }
    store_state(acc, u, &o.state_after);
}

fn describe_outcome(u: usize, o: &Outcome) -> String {
    let connects: Vec<String> = o
        .connects
        .iter()
        .map(|&(a, b)| format!("{a}-{b}"))
        .collect();
    let shares: Vec<String> = o
        .shares
        .iter()
        .map(|&(to, s)| match s {
            Share::KnownList => format!("KnownList->{to}"),
            Share::PullRequest => format!("PullRequest->{to}"),
            Share::Slice { start, len } => format!("Slice[{start}+{len}]->{to}"),
        })
        .collect();
    format!(
        "node {u}: choices {:?} connects [{}] shares [{}]",
        o.choices,
        connects.join(","),
        shares.join(",")
    )
}

/// Scan one outcome against the safety properties. Returns the violation
/// and an offender description, and tracks the payload-size statistic.
fn scan_outcome(
    budget: Option<u64>,
    world: World,
    start: &[u8; MAX_N],
    n: usize,
    u: usize,
    o: &Outcome,
    stats: &mut CheckStats,
) -> Option<(Violation, String)> {
    let closed1: u8 = start[u] | 1 << u;
    let closed2: u8 = match world {
        World::Graph => (0..n)
            .filter(|&v| start[u] >> v & 1 == 1)
            .fold(closed1, |acc, v| acc | start[v] | 1 << v),
        World::Knowledge => closed1,
    };
    let fail = |v: Violation| Some((v, describe_outcome(u, o)));

    for &(a, b) in &o.connects {
        let in_world = (a as usize) < n && (b as usize) < n;
        let in_two_hop = in_world && closed2 >> a & 1 == 1 && closed2 >> b & 1 == 1;
        let anchors_one_hop = in_world && (closed1 >> a & 1 == 1 || closed1 >> b & 1 == 1);
        if !(in_two_hop && anchors_one_hop) {
            return fail(Violation::PhantomConnect {
                node: u as u32,
                a,
                b,
            });
        }
        // A connect materializes as two introductions of one id each.
        stats.max_payload_ids = stats.max_payload_ids.max(1);
        if let Some(k) = budget {
            if 1 > k {
                return fail(Violation::OverBudget {
                    node: u as u32,
                    ids: 1,
                    budget: k,
                });
            }
        }
    }
    for &(to, s) in &o.shares {
        if (to as usize) >= n || start[u] >> to & 1 == 0 {
            return fail(Violation::PhantomShare { node: u as u32, to });
        }
        let ids: u64 = match s {
            // Own full list plus the sender's id.
            Share::KnownList => (start[u].count_ones() + 1) as u64,
            // The request carries one id; the induced reply carries the
            // target's full list, which counts against the same budget.
            Share::PullRequest => ((start[to as usize].count_ones() + 1) as u64).max(1),
            // The window itself; the sender id rides in the envelope,
            // matching `ThrottledKernel`'s declared `Some(budget)`.
            Share::Slice { len, .. } => len as u64,
        };
        stats.max_payload_ids = stats.max_payload_ids.max(ids);
        if let Some(k) = budget {
            if ids > k {
                return fail(Violation::OverBudget {
                    node: u as u32,
                    ids,
                    budget: k,
                });
            }
        }
    }
    None
}

type Combo = Vec<Option<u16>>;

/// How a state was reached from its BFS parent.
#[derive(Clone, Debug)]
enum Step {
    /// A synchronous round: one scheduled outcome index (or drop) per node.
    Round(Combo),
    /// The next churn-script event fired.
    Churn(ChurnEvent),
}

type ParentMap = HashMap<u128, Option<(u128, Step)>>;

/// Rebuild the minimal path from the initial state to `end`, re-deriving
/// each predecessor's menus to render the scheduled actions.
fn build_trace<K: ProtocolKernel + ?Sized>(
    kernel: &K,
    world: World,
    n: usize,
    stateful: bool,
    parent: &ParentMap,
    end: u128,
) -> Vec<TraceStep> {
    let mut path: Vec<(u128, Step)> = Vec::new();
    let mut k = end;
    while let Some(Some((prev, step))) = parent.get(&k) {
        path.push((*prev, step.clone()));
        k = *prev;
    }
    path.reverse();
    path.into_iter()
        .map(|(prev, step)| {
            let (joint, _) = unpack(prev);
            let actions = match step {
                Step::Churn(ev) => vec![match ev {
                    ChurnEvent::Leave { node } => format!("membership: leave {node}"),
                    ChurnEvent::Rejoin { node, contacts } => {
                        let cs: Vec<String> = (0..n)
                            .filter(|&w| contacts >> w & 1 == 1)
                            .map(|w| w.to_string())
                            .collect();
                        format!("membership: rejoin {node} contacts {{{}}}", cs.join(","))
                    }
                }],
                Step::Round(combo) => {
                    let lists = rows_to_lists(&joint.rows, n);
                    (0..n)
                        .map(|u| match combo.get(u).copied().flatten() {
                            None => format!("node {u}: (dropped)"),
                            Some(idx) => {
                                let st = node_state(&joint, n, u, stateful);
                                let menu = node_menu(kernel, world, &lists, u, &st);
                                describe_outcome(u, &menu[idx as usize])
                            }
                        })
                        .collect()
                }
            };
            TraceStep {
                state: joint.rows,
                actions,
            }
        })
        .collect()
}

/// Exhaustively check one kernel on one instance: BFS every reachable
/// joint state under `cfg`'s omission/lossless schedule, verifying safety
/// on every enumerated outcome and, unless `cfg` turns it off, liveness (no
/// stuck incomplete state) on every state; `cfg`'s bounded churn script is
/// interleaved with rounds by the adversary.
pub fn check_kernel_with<K: ProtocolKernel + ?Sized>(
    kernel: &K,
    world: World,
    inst: Instance,
    cfg: &CheckConfig,
) -> Result<CheckStats, Box<Counterexample>> {
    let n = inst.n;
    let budget = kernel.max_message_ids();
    let init_state = kernel.initial_state(n);
    let stateful = matches!(init_state, NodeState::Cursors(_));
    let mut init_cursors = [0u8; MAX_N];
    if let NodeState::Cursors(c) = &init_state {
        assert!(c.len() >= n, "initial cursor state shorter than n");
        for (slot, &cv) in init_cursors.iter_mut().zip(c.iter()) {
            *slot = cv as u8;
        }
    }

    let init = Joint {
        rows: inst.initial_rows(),
        cursors: [init_cursors; MAX_N],
    };
    let init_key = pack(&init, 0);

    let mut stats = CheckStats::default();
    let mut parent: ParentMap = HashMap::new();
    parent.insert(init_key, None);
    let mut queue: VecDeque<(u128, usize)> = VecDeque::new();
    queue.push_back((init_key, 0));

    let fail = |violation, offender, rows, key: u128, parent: &ParentMap| {
        Box::new(Counterexample {
            instance: inst,
            kernel: kernel.name(),
            world,
            schedule: cfg.schedule,
            script: cfg.script.clone(),
            violation,
            offender,
            state: rows,
            trace: build_trace(kernel, world, n, stateful, parent, key),
        })
    };

    while let Some((key, depth)) = queue.pop_front() {
        stats.states += 1;
        stats.max_depth = stats.max_depth.max(depth);
        let (joint, pos) = unpack(key);
        let lists = rows_to_lists(&joint.rows, n);
        let menus: Vec<Vec<Outcome>> = (0..n)
            .map(|u| {
                let st = node_state(&joint, n, u, stateful);
                node_menu(kernel, world, &lists, u, &st)
            })
            .collect();

        for (u, menu) in menus.iter().enumerate() {
            for o in menu {
                if let Some((violation, offender)) =
                    scan_outcome(budget, world, &joint.rows, n, u, o, &mut stats)
                {
                    return Err(fail(violation, offender, joint.rows, key, &parent));
                }
            }
        }

        // Completion is judged over the nodes present at this script
        // position: each present node knows every other present node
        // (departed rows are scrubbed and, for correct kernels, can never
        // be repopulated — ids only propagate out of existing rows).
        let present = present_mask(n, &cfg.script, pos);
        let complete = (0..n)
            .filter(|&i| present >> i & 1 == 1)
            .all(|i| joint.rows[i] == present & !(1 << i));
        if complete && pos == cfg.script.len() {
            continue;
        }

        // Liveness: some single outcome must change the state. Row
        // effects are monotone unions and cursor slots are node-owned, so
        // if every single outcome is a no-op, every combination is too —
        // the state is permanently stuck.
        if cfg.check_liveness && !complete {
            let progress = menus.iter().enumerate().any(|(u, menu)| {
                menu.iter().any(|o| {
                    let mut acc = joint;
                    apply_outcome(&joint, &mut acc, n, u, o, &lists);
                    acc != joint
                })
            });
            if !progress {
                return Err(fail(
                    Violation::Stuck,
                    String::new(),
                    joint.rows,
                    key,
                    &parent,
                ));
            }
        }

        if depth >= cfg.max_rounds {
            stats.truncated = true;
            continue;
        }

        // Successors: fold node menus left to right, deduplicating the
        // accumulated state after each node (sound: row unions commute
        // and each node owns its cursor slots), and keep one witness
        // combo per accumulation for parent pointers.
        let mut frontier: HashMap<u128, Combo> = HashMap::new();
        frontier.insert(key, Vec::new());
        for (u, menu) in menus.iter().enumerate() {
            let mut next: HashMap<u128, Combo> = HashMap::new();
            for (acc_key, combo) in &frontier {
                let (acc0, _) = unpack(*acc_key);
                if cfg.schedule == Schedule::Omission {
                    let mut c = combo.clone();
                    c.push(None);
                    next.entry(*acc_key).or_insert(c);
                }
                for (idx, o) in menu.iter().enumerate() {
                    let mut acc = acc0;
                    apply_outcome(&joint, &mut acc, n, u, o, &lists);
                    let mut c = combo.clone();
                    c.push(Some(idx as u16));
                    next.entry(pack(&acc, pos)).or_insert(c);
                }
            }
            frontier = next;
        }
        let mut succs: Vec<(u128, Step)> = frontier
            .into_iter()
            .map(|(k, combo)| (k, Step::Round(combo)))
            .collect();
        // The adversary may fire the next churn event instead of a round.
        if pos < cfg.script.len() {
            let mut churned = joint;
            apply_event(&mut churned, n, cfg.script[pos], &init_cursors);
            succs.push((pack(&churned, pos + 1), Step::Churn(cfg.script[pos])));
        }
        for (succ, step) in succs {
            stats.transitions += 1;
            if succ == key {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(succ) {
                slot.insert(Some((key, step)));
                queue.push_back((succ, depth + 1));
            }
        }
    }
    Ok(stats)
}

/// Check a kernel over **every** connected instance with `n <= max_n`,
/// aggregating statistics; the first violation aborts the sweep.
pub fn check_all<K: ProtocolKernel + ?Sized>(
    kernel: &K,
    world: World,
    schedule: Schedule,
    max_n: usize,
    max_rounds: usize,
) -> Result<CheckStats, Box<Counterexample>> {
    let mut total = CheckStats::default();
    for inst in all_instances(max_n) {
        total.absorb(check_kernel_with(
            kernel,
            world,
            inst,
            &CheckConfig::new(schedule, max_rounds),
        )?);
    }
    Ok(total)
}

/// Every bounded churn script for `inst`: each node as the victim, both a
/// permanent departure and a departure followed by a re-join with every
/// nonempty bootstrap subset of the remaining nodes.
pub fn churn_scripts(inst: &Instance) -> Vec<Vec<ChurnEvent>> {
    let n = inst.n;
    let mut out = Vec::new();
    for v in 0..n as u32 {
        out.push(vec![ChurnEvent::Leave { node: v }]);
        let others: Vec<u32> = (0..n as u32).filter(|&w| w != v).collect();
        for choice in 1u16..1 << others.len() {
            let contacts = others
                .iter()
                .enumerate()
                .filter(|&(i, _)| choice >> i & 1 == 1)
                .fold(0u8, |acc, (_, &w)| acc | 1 << w);
            out.push(vec![
                ChurnEvent::Leave { node: v },
                ChurnEvent::Rejoin { node: v, contacts },
            ]);
        }
    }
    out
}

/// Sweep a kernel over every connected instance with `n <= max_n` × every
/// bounded churn script from [`churn_scripts`], proving no-phantom-contact
/// safety on every reachable (state, script position) pair under every
/// interleaving of rounds and membership events. Liveness is out of scope
/// here (a leave can disconnect the instance); see [`CheckConfig`].
pub fn check_churn_family<K: ProtocolKernel + ?Sized>(
    kernel: &K,
    world: World,
    schedule: Schedule,
    max_n: usize,
    max_rounds: usize,
) -> Result<CheckStats, Box<Counterexample>> {
    let mut total = CheckStats::default();
    for inst in all_instances(max_n) {
        for script in churn_scripts(&inst) {
            let cfg = CheckConfig {
                schedule,
                max_rounds,
                check_liveness: false,
                script,
            };
            total.absorb(check_kernel_with(kernel, world, inst, &cfg)?);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::PushKernel;

    #[test]
    fn pack_unpack_roundtrip() {
        let j = Joint {
            rows: [0b10110, 0b00001, 0, 0b11111, 0b01010],
            cursors: [
                [0, 1, 2, 3, 4],
                [4, 3, 2, 1, 0],
                [0; 5],
                [7, 0, 7, 0, 7],
                [1; 5],
            ],
        };
        for pos in [0usize, 1, 3] {
            let (back, back_pos) = unpack(pack(&j, pos));
            assert_eq!(back, j);
            assert_eq!(back_pos, pos);
        }
    }

    #[test]
    fn push_on_path3_reaches_triangle() {
        // Path 0-1-2 (mask: edges 0-1 and 1-2).
        let inst = crate::instance::connected_instances(3)
            .into_iter()
            .find(|i| i.edges().len() == 2)
            .unwrap();
        let cfg = CheckConfig::new(Schedule::Lossless, 32);
        let stats = check_kernel_with(&PushKernel, World::Graph, inst, &cfg).unwrap();
        // States: path and triangle (the only strict superset).
        assert_eq!(stats.states, 2);
        assert!(!stats.truncated);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn complete_instance_is_one_state() {
        // Triangle: complete from the start, nothing to explore.
        let inst = crate::instance::connected_instances(3)
            .into_iter()
            .find(|i| i.edges().len() == 3)
            .unwrap();
        let cfg = CheckConfig::new(Schedule::Omission, 32);
        let stats = check_kernel_with(&PushKernel, World::Graph, inst, &cfg).unwrap();
        assert_eq!(stats.states, 1);
        assert_eq!(stats.transitions, 0);
    }

    #[test]
    fn churn_scripts_cover_every_victim_and_bootstrap_subset() {
        let inst = crate::instance::connected_instances(3)
            .into_iter()
            .find(|i| i.edges().len() == 2)
            .unwrap();
        let scripts = churn_scripts(&inst);
        // 3 victims × (1 leave-only + 3 nonempty 2-element subsets).
        assert_eq!(scripts.len(), 12);
        assert!(scripts.iter().all(|s| !s.is_empty() && s.len() <= 2));
    }

    #[test]
    fn leave_scrubs_rows_and_rejoin_bootstraps_symmetrically() {
        let mut j = Joint {
            rows: [0b110, 0b101, 0b011, 0, 0],
            cursors: [[2; MAX_N]; MAX_N],
        };
        let init = [0u8; MAX_N];
        apply_event(&mut j, 3, ChurnEvent::Leave { node: 1 }, &init);
        assert_eq!(j.rows[1], 0);
        assert_eq!(j.rows[0], 0b100);
        assert_eq!(j.rows[2], 0b001);
        // The departed node's own state resets; peers keep theirs.
        assert_eq!(j.cursors[1], init);
        assert_eq!(j.cursors[0], [2; MAX_N]);
        apply_event(
            &mut j,
            3,
            ChurnEvent::Rejoin {
                node: 1,
                contacts: 0b100,
            },
            &init,
        );
        assert_eq!(j.rows[1], 0b100);
        assert_eq!(j.rows[2], 0b011);
        assert_eq!(j.rows[0], 0b100, "non-bootstrap rows untouched");
    }

    #[test]
    fn present_mask_tracks_script_position() {
        let script = vec![
            ChurnEvent::Leave { node: 2 },
            ChurnEvent::Rejoin {
                node: 2,
                contacts: 0b1,
            },
        ];
        assert_eq!(present_mask(3, &script, 0), 0b111);
        assert_eq!(present_mask(3, &script, 1), 0b011);
        assert_eq!(present_mask(3, &script, 2), 0b111);
    }
}
