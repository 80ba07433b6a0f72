//! # discovery-gossip
//!
//! A production-grade Rust reproduction of **“Discovery through Gossip”**
//! (Haeupler, Pandurangan, Peleg, Rajaraman, Sun — SPAA 2012,
//! arXiv:1202.2092): randomized gossip-based discovery processes on
//! self-rewiring networks, with everything needed to re-derive the paper's
//! results on a laptop.
//!
//! This crate is the facade: it re-exports the eight member library crates
//! and a [`prelude`]. See the individual crates for the real APIs:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`graph`] (`gossip-graph`) | dynamic graphs with O(1) neighbor sampling, generators incl. the paper's lower-bound constructions, traversal/SCC/closure |
//! | [`core`] (`gossip-core`) | the push/pull/directed processes, deterministic parallel engine, engine builder, unified round-listener seam, membership lifecycle seam (join/leave between rounds), Monte Carlo trials, robustness variants |
//! | [`shard`] (`gossip-shard`) | deterministic multi-shard round engine: shard-parallel propose/apply over owner-partitioned arena segments, plus the cross-process transport (framed mailboxes over Unix domain sockets) |
//! | [`cluster`] (`gossip-cluster`) | datagram shard transport for cross-host runs: static peer tables, per-peer ack/timeout/backoff windows with fragmentation, streamed bootstrap snapshots, shard-0 round coordinator |
//! | [`serve`] (`gossip-serve`) | resident service: a live engine behind cheap epoch snapshots, a concurrent query surface, and pluggable listeners |
//! | [`baselines`] (`gossip-baselines`) | Name Dropper, Random Pointer Jump, throttled ND, flooding — with message-bit accounting |
//! | [`net`] (`gossip-net`) | byte-accurate message-passing simulator: loss, churn, coverage/staleness metrics |
//! | [`analysis`] (`gossip-analysis`) | exact Markov-chain solver (Figure 1(c)), statistics, asymptotic model fitting |
//!
//! ## Ten-line tour
//!
//! ```
//! use discovery_gossip::prelude::*;
//!
//! // The push process completes a 32-node star...
//! let g0 = generators::star(32);
//! let mut check = ComponentwiseComplete::for_graph(&g0);
//! let mut engine = Engine::new(g0, Push, 7);
//! let out = engine.run_until(&mut check, 1_000_000);
//! assert!(out.converged);
//! // ...into the complete graph, using O(log n)-bit interactions only.
//! assert!(engine.graph().is_complete());
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use gossip_analysis as analysis;
pub use gossip_baselines as baselines;
pub use gossip_cluster as cluster;
pub use gossip_core as core;
pub use gossip_graph as graph;
pub use gossip_net as net;
pub use gossip_serve as serve;
pub use gossip_shard as shard;

/// Most-used items in one import.
pub mod prelude {
    pub use gossip_analysis::{
        exact_expected_rounds, find_nonmonotone_pairs, fit_model, loglog_exponent, rank_models,
        GrowthModel, ProcessKind, Summary, Table,
    };
    pub use gossip_baselines::{
        DiscoveryAlgorithm, Flooding, Knowledge, NameDropper, PointerJump, ThrottledNameDropper,
    };
    pub use gossip_cluster::{ClusterBuilder, ClusterEngine, ClusterStats, DatagramLoss};
    pub use gossip_core::{
        convergence_rounds, run_engine_listened, run_engine_until, run_trials, stream_trials,
        ChurnBursts, ClosureReached, ComponentwiseComplete, ConvergenceCheck, DirectedPull,
        DiscoveryTrace, Engine, EngineBuilder, Faulty, HybridPushPull, ListenerSet,
        MembershipEvent, MembershipPlan, MembershipStats, MinDegreeAtLeast, Never, OnlySubset,
        Parallelism, Partial, Pull, Push, RoundEngine, RoundListener, RoundRecorder, RuleId,
        SubsetComplete, TrialConfig,
    };
    pub use gossip_graph::{generators, ArenaGraph, DirectedGraph, NodeId, ShardedArenaGraph};
    pub use gossip_net::{
        ChurnModel, HeartbeatPushProtocol, NetConfig, Network, PullProtocol as NetPull,
        PushProtocol as NetPush,
    };
    pub use gossip_serve::{GossipService, MetricsCounters, ServeConfig, Snapshot};
    pub use gossip_shard::{
        BuildSharded, ShardedEngine, TransportBuilder, TransportEngine, TransportMode,
    };
}
