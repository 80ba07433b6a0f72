//! Round recorders: time-series capture without slowing the hot loop.
//!
//! Recorders are plain [`RoundListener`]s — the single observation seam
//! ([`crate::listener`]) every engine reports through. Chain one next to a
//! stopping listener to record a run:
//!
//! ```
//! use gossip_core::{
//!     run_engine_listened, Chain, ComponentwiseComplete, Engine, Push, SeriesRecorder, StopWhen,
//! };
//! use gossip_graph::generators;
//!
//! let g = generators::path(12);
//! let mut check = ComponentwiseComplete::for_graph(&g);
//! let mut rec = SeriesRecorder::every(2);
//! let mut engine = Engine::new(g, Push, 7);
//! let out = run_engine_listened(
//!     &mut engine,
//!     &mut Chain(&mut rec, StopWhen(&mut check)),
//!     100_000,
//! );
//! assert!(out.converged && !rec.rows().is_empty());
//! ```

use crate::listener::{RoundControl, RoundEvent, RoundListener};
use crate::process::RoundStats;
use gossip_graph::ArenaGraph;

/// One sampled row of an undirected run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesRow {
    /// Round index.
    pub round: u64,
    /// Edge count after the round.
    pub m: u64,
    /// Minimum degree after the round.
    pub min_degree: usize,
    /// Maximum degree after the round.
    pub max_degree: usize,
    /// Edges added in this round.
    pub added: u64,
}

/// Samples an undirected run every `stride` rounds (and on round 1).
///
/// Degree scans are O(n); at stride `s` the recorder costs O(n/s) per round
/// amortized. Pick `stride >= n / 64` for long runs.
#[derive(Clone, Debug)]
pub struct SeriesRecorder {
    stride: u64,
    rows: Vec<SeriesRow>,
}

impl SeriesRecorder {
    /// Creates a recorder sampling every `stride` rounds (`stride >= 1`).
    pub fn every(stride: u64) -> Self {
        assert!(stride >= 1, "stride must be >= 1");
        SeriesRecorder {
            stride,
            rows: Vec::new(),
        }
    }

    /// The captured rows.
    pub fn rows(&self) -> &[SeriesRow] {
        &self.rows
    }

    /// Observes round `round` (1-based) with the post-round graph.
    pub fn observe(&mut self, round: u64, g: &ArenaGraph, stats: &RoundStats) {
        if round == 1 || round.is_multiple_of(self.stride) {
            self.rows.push(SeriesRow {
                round,
                m: g.m(),
                min_degree: g.min_degree(),
                max_degree: g.max_degree(),
                added: stats.added,
            });
        }
    }
}

impl RoundListener<ArenaGraph> for SeriesRecorder {
    fn on_round(&mut self, ev: &RoundEvent<'_, ArenaGraph>) -> RoundControl {
        self.observe(ev.round, ev.graph, &ev.stats);
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
    use gossip_graph::generators;

    #[test]
    fn series_recorder_strides() {
        let g = generators::path(16);
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut rec = SeriesRecorder::every(5);
        let mut engine = Engine::new(g, Push, 42);
        let out = run_engine_listened(
            &mut engine,
            &mut Chain(&mut rec, StopWhen(&mut check)),
            100_000,
        );
        assert!(out.converged);
        let rows = rec.rows();
        assert!(!rows.is_empty());
        assert_eq!(rows[0].round, 1);
        // Strided rows (after the first) land on multiples of 5.
        for row in &rows[1..] {
            assert_eq!(row.round % 5, 0);
        }
        // m is nondecreasing across rows.
        for w in rows.windows(2) {
            assert!(w[1].m >= w[0].m);
        }
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn recorder_rejects_zero_stride() {
        let _ = SeriesRecorder::every(0);
    }
}
