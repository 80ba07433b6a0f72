//! # gossip-serve
//!
//! A **resident gossip service**: the repository's engines were built for
//! batch experiments — construct, run to convergence, read the answer.
//! This crate keeps an engine *alive*, advancing rounds continuously on a
//! worker thread while concurrent readers ask who-knows-whom, membership,
//! degree/coverage/convergence questions against **epoch snapshots** —
//! immutable, cheaply-cloned views published between rounds.
//!
//! Three pieces:
//!
//! - [`GossipService`] owns any [`RoundEngine`](gossip_core::RoundEngine)
//!   (sequential, async, sharded, cross-process) and drives it through the same
//!   listener-seam run loop batch experiments use, so a served trajectory
//!   is bit-identical to a batch run of the same `(graph, rule, seed)`.
//! - [`Snapshot`] is one published epoch. For the sharded backend a
//!   snapshot is O(shards) thanks to copy-on-write segments — publishing a
//!   view of a million-node graph does not copy the graph.
//! - [`RoundListener`](gossip_core::RoundListener) plugins —
//!   [`MetricsCounters`], core's
//!   [`RoundRecorder`](gossip_core::RoundRecorder), or anything
//!   caller-written — ride the worker loop via
//!   [`GossipService::spawn_with`].
//!
//! ## Quickstart
//!
//! ```
//! use gossip_core::{EngineBuilder, GossipGraph, Push};
//! use gossip_graph::{generators, NodeId};
//! use gossip_serve::{GossipService, ServeConfig};
//!
//! let engine = EngineBuilder::new(generators::star(64), Push, 7).build();
//! let svc = GossipService::spawn(engine, ServeConfig { snapshot_every: 1, budget: 40 });
//! let reader = svc.handle();          // Clone + Send: query from anywhere
//! let snap = reader.snapshot();       // frozen view, engine races ahead
//! let _ = (snap.degree(NodeId(0)), snap.knows(NodeId(0), NodeId(5)), snap.stats().coverage);
//! let (engine, outcome) = svc.join(); // engine comes back for inspection
//! assert_eq!(outcome.rounds, 40);
//! assert_eq!(engine.graph().edge_count(), reader.snapshot().edge_count());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod plugins;
pub mod service;
pub mod snapshot;

pub use plugins::{MetricsCounters, ServiceMetrics};
pub use service::{GossipService, ServeConfig, ServeOutcome, ServiceHandle};
pub use snapshot::{CoverageStats, Snapshot};
