//! The round recorder: one row per executed round, from any engine.
//!
//! [`RoundRecorder`] is a plain [`RoundListener`] — the single observation
//! seam ([`crate::listener`]) every engine reports through — that keeps
//! what each round did: its [`RoundStats`], the edge count after it, and
//! optionally a caller-chosen probe of the post-round graph. Its rows sit
//! behind a shared handle, so the same recorder rides a batch run
//! ([`crate::seam::run_engine_listened`]) or a served one (a
//! `ListenerSet` handed to `gossip-serve`), and two runs compare row for
//! row. Chain one next to a stopping listener to record a run:
//!
//! ```
//! use gossip_core::{
//!     run_engine_listened, Chain, ComponentwiseComplete, Engine, Push, RoundRecorder, StopWhen,
//! };
//! use gossip_graph::{generators, ArenaGraph};
//!
//! let g = generators::path(12);
//! let mut check = ComponentwiseComplete::for_graph(&g);
//! let mut rec = RoundRecorder::probing(|g: &ArenaGraph| vec![g.min_degree() as u64]);
//! let mut engine = Engine::new(g, Push, 7);
//! let out = run_engine_listened(
//!     &mut engine,
//!     &mut Chain(&mut rec, StopWhen(&mut check)),
//!     100_000,
//! );
//! let rows = rec.rows();
//! assert!(out.converged && rows.len() as u64 == out.rounds);
//! assert_eq!(rows.last().unwrap().probe, vec![11]);
//! ```

use crate::listener::{RoundControl, RoundEvent, RoundListener};
use crate::process::{GossipGraph, RoundStats};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What one round did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundRow {
    /// The round's 1-based index.
    pub round: u64,
    /// The round's proposal and addition counts.
    pub stats: RoundStats,
    /// Edge count after the round.
    pub m: u64,
    /// What the recorder's probe read off the post-round graph (empty
    /// without a probe).
    pub probe: Vec<u64>,
}

type Probe<G> = Arc<dyn Fn(&G) -> Vec<u64> + Send + Sync>;

/// Records one [`RoundRow`] per round: the rows, which every clone
/// shares (keep one clone to read them while another rides the run), and
/// the probe.
#[derive(Clone)]
pub struct RoundRecorder<G>(Arc<Mutex<Vec<RoundRow>>>, Probe<G>);

impl<G: GossipGraph> Default for RoundRecorder<G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: GossipGraph> RoundRecorder<G> {
    /// A recorder with no probe.
    pub fn new() -> Self {
        Self::probing(|_| Vec::new())
    }

    /// A recorder that also stores `probe(G_{t+1})` in each row.
    pub fn probing(probe: impl Fn(&G) -> Vec<u64> + Send + Sync + 'static) -> Self {
        RoundRecorder(Arc::default(), Arc::new(probe))
    }

    /// A copy of the rows recorded so far.
    pub fn rows(&self) -> Vec<RoundRow> {
        self.lock().clone()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<RoundRow>> {
        // Poison cannot tear the rows: the only write is one `Vec::push`.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<G: GossipGraph> RoundListener<G> for RoundRecorder<G> {
    fn on_round(&mut self, ev: &RoundEvent<'_, G>) -> RoundControl {
        let row = RoundRow {
            round: ev.round,
            stats: ev.stats,
            m: ev.graph.edge_count(),
            probe: (self.1)(ev.graph),
        };
        self.lock().push(row);
        RoundControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::ComponentwiseComplete;
    use crate::engine::Engine;
    use crate::listener::{Chain, StopWhen};
    use crate::rules::Push;
    use crate::seam::run_engine_listened;
    use gossip_graph::{generators, ArenaGraph};

    #[test]
    fn recorder_keeps_every_round_and_its_probe() {
        let g = generators::path(16);
        let m0 = g.m();
        let mut check = ComponentwiseComplete::for_graph(&g);
        let plain = RoundRecorder::new();
        let mut probed = RoundRecorder::probing(|g: &ArenaGraph| vec![g.min_degree() as u64]);
        let mut engine = Engine::new(g, Push, 42);
        let out = run_engine_listened(
            &mut engine,
            &mut Chain(plain.clone(), Chain(&mut probed, StopWhen(&mut check))),
            100_000,
        );
        assert!(out.converged);
        // The clone that rode the run shares its rows with the one kept.
        let rows = plain.rows();
        assert_eq!(rows.len() as u64, out.rounds);
        let mut m = m0;
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.round, i as u64 + 1);
            // Push only adds, so m is the start count plus the additions.
            m += row.stats.added;
            assert_eq!(row.m, m);
            assert!(row.stats.added <= row.stats.proposed);
            assert!(row.probe.is_empty());
        }
        assert_eq!(m, engine.graph().m());
        let probed = probed.rows();
        assert!(probed.iter().zip(&rows).all(|(p, r)| {
            p.round == r.round && p.stats == r.stats && p.m == r.m && p.probe.len() == 1
        }));
        assert!(probed.windows(2).all(|w| w[0].probe <= w[1].probe));
        assert_eq!(probed.last().unwrap().probe, vec![15]);
    }
}
