//! Stock listeners for the serve loop.
//!
//! A plugin is an ordinary [`RoundListener`] plus a thread-safe handle to
//! its output: the listener rides the worker thread inside the service's
//! [`ListenerSet`](gossip_core::ListenerSet), the handle stays with the
//! caller. This module provides live counters ([`MetricsCounters`]); the
//! per-round recorder is core's
//! [`RoundRecorder`](gossip_core::RoundRecorder), the same one batch runs
//! record through. Anything else that implements [`RoundListener`] plugs
//! in the same way via
//! [`GossipService::spawn_with`](crate::GossipService::spawn_with).

use gossip_core::listener::{RoundControl, RoundEvent, RoundListener};
use gossip_core::GossipGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live counters updated once per round; read them from any thread while
/// the engine runs.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Rounds executed.
    pub rounds: AtomicU64,
    /// Edges proposed, cumulative (duplicates included).
    pub proposed: AtomicU64,
    /// Edges actually added, cumulative.
    pub added: AtomicU64,
    /// Current edge count.
    pub edges: AtomicU64,
}

/// Listener half of the metrics plugin.
pub struct MetricsCounters {
    out: Arc<ServiceMetrics>,
}

impl MetricsCounters {
    /// Creates the listener and the shared counters it updates.
    pub fn new() -> (Self, Arc<ServiceMetrics>) {
        let out = Arc::new(ServiceMetrics::default());
        (MetricsCounters { out: out.clone() }, out)
    }
}

impl<G: GossipGraph> RoundListener<G> for MetricsCounters {
    fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
        self.out.rounds.store(ev.round, Ordering::Release);
        self.out
            .proposed
            .fetch_add(ev.stats.proposed, Ordering::Relaxed);
        self.out.added.fetch_add(ev.stats.added, Ordering::Relaxed);
        self.out
            .edges
            .store(ev.graph.edge_count(), Ordering::Release);
        RoundControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{GossipService, ServeConfig};
    use gossip_core::{EngineBuilder, ListenerSet, Push, RoundRecorder};
    use gossip_graph::generators;

    #[test]
    fn plugins_ride_the_serve_loop() {
        let g = generators::star(32);
        let engine = EngineBuilder::new(g, Push, 17).build();
        let (metrics_l, metrics) = MetricsCounters::new();
        let rec = RoundRecorder::new();
        let listeners = ListenerSet::new().with(metrics_l).with(rec.clone());
        let svc = GossipService::spawn_with(
            engine,
            ServeConfig {
                snapshot_every: 10,
                budget: 20,
            },
            listeners,
        );
        let (engine, out) = svc.join();
        assert_eq!(out.rounds, 20);
        assert_eq!(metrics.rounds.load(Ordering::Acquire), 20);
        assert_eq!(
            metrics.edges.load(Ordering::Acquire),
            engine.graph().edge_count()
        );
        let rows = rec.rows();
        assert_eq!(rows.len(), 20);
        assert!(rows
            .iter()
            .enumerate()
            .all(|(i, r)| r.round == i as u64 + 1));
        assert_eq!(rows.last().unwrap().m, engine.graph().edge_count());
        let added: u64 = rows.iter().map(|r| r.stats.added).sum();
        assert_eq!(metrics.added.load(Ordering::Acquire), added);
    }
}
