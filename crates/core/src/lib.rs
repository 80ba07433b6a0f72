//! # gossip-core
//!
//! The primary contribution of *Discovery through Gossip* (SPAA 2012):
//! the **push (triangulation)** and **pull (two-hop walk)** discovery
//! processes, their directed variant, and a deterministic synchronous-round
//! engine to run them at experiment scale.
//!
//! The processes are stateless and local: each round every node makes an
//! O(1) random choice from its own neighborhood and at most one edge per
//! node is proposed. The paper proves both processes complete any connected
//! undirected `n`-node graph in `O(n log² n)` rounds w.h.p.; this crate is
//! the machinery the repository uses to validate that (and the rest of the
//! theorems) empirically.
//!
//! ## Determinism contract
//!
//! Every random decision is drawn from a counter-based stream keyed by
//! `(seed, round, node)` ([`rng`]). Combined with ordered application of
//! proposals, this makes runs bit-identical across sequential and parallel
//! execution and across trial-batch scheduling.
//!
//! ## Quickstart
//!
//! ```
//! use gossip_core::{ComponentwiseComplete, Engine, Push};
//! use gossip_graph::generators;
//!
//! let g0 = generators::star(16);
//! let mut check = ComponentwiseComplete::for_graph(&g0);
//! let mut engine = Engine::new(g0, Push, 42);
//! let out = engine.run_until(&mut check, 1_000_000);
//! assert!(out.converged);
//! assert!(engine.graph().is_complete());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod async_engine;
pub mod builder;
pub mod convergence;
pub mod diagnostics;
pub mod engine;
pub mod kernel;
pub mod listener;
pub mod membership;
pub mod process;
pub mod recorder;
pub mod registry;
pub mod rng;
pub mod rules;
pub mod seam;
pub mod trace;
pub mod trials;
pub mod variants;

pub use async_engine::AsyncEngine;
pub use builder::EngineBuilder;
pub use convergence::{
    ClosureReached, ComponentwiseComplete, ConvergenceCheck, MinDegreeAtLeast, Never,
    SubsetComplete,
};
pub use engine::{Engine, Parallelism, RunOutcome};
pub use kernel::{
    kernel_propose, Chooser, Effects, FloodingKernel, GraphView, HybridKernel, LocalView,
    NameDropperKernel, NodeState, NodeView, PointerJumpKernel, ProtocolKernel, PullKernel,
    PushKernel, RngChooser, Share, ThrottledKernel,
};
pub use listener::{
    Chain, ListenerSet, PhaseAccumulator, PhaseEvent, PhaseNanos, RoundControl, RoundEvent,
    RoundListener, RoundPhase, StopWhen,
};
pub use membership::{ChurnBursts, MembershipEvent, MembershipPlan, MembershipStats};
pub use process::{GossipGraph, ProposalRule, ProposalSet, RoundStats, TaggedProposal};
pub use recorder::{RoundRecorder, RoundRow};
pub use registry::RuleId;
pub use rules::{DirectedPull, HybridPushPull, Pull, Push};
pub use seam::{run_engine_listened, run_engine_until, RoundEngine};
pub use trace::{DiscoveryTrace, EdgeEvent};
pub use trials::{convergence_rounds, run_trials, stream_trials, TrialConfig};
pub use variants::{Faulty, OnlySubset, Partial};
