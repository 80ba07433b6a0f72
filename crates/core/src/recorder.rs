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
use gossip_graph::UndirectedGraph;

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
    pub fn observe(&mut self, round: u64, g: &UndirectedGraph, stats: &RoundStats) {
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

impl RoundListener<UndirectedGraph> for SeriesRecorder {
    fn on_round(&mut self, ev: &RoundEvent<'_, UndirectedGraph>) -> RoundControl {
        self.observe(ev.round, ev.graph, &ev.stats);
        RoundControl::Continue
    }
}

/// Records the first round at which the minimum degree reached each power of
/// `growth_factor` times the starting minimum degree — the direct empirical
/// analogue of the paper's "δ grows by a constant factor every O(n log n)
/// rounds" progress measure.
#[derive(Clone, Debug)]
pub struct MinDegreeMilestones {
    delta0: usize,
    factor: f64,
    next_target: f64,
    /// Degree hit the `n - 1` ceiling: no further milestones can occur.
    capped: bool,
    /// `(round, min_degree)` at each milestone crossing.
    milestones: Vec<(u64, usize)>,
}

impl MinDegreeMilestones {
    /// Tracks milestones `delta0 * factor^i` for the run.
    pub fn new(delta0: usize, factor: f64) -> Self {
        assert!(factor > 1.0, "growth factor must exceed 1");
        assert!(delta0 >= 1, "delta0 must be >= 1");
        MinDegreeMilestones {
            delta0,
            factor,
            next_target: delta0 as f64 * factor,
            capped: false,
            milestones: Vec::new(),
        }
    }

    /// `(round, min_degree)` pairs at which successive factor targets were hit.
    pub fn milestones(&self) -> &[(u64, usize)] {
        &self.milestones
    }

    /// The starting minimum degree.
    pub fn delta0(&self) -> usize {
        self.delta0
    }

    /// Observes round `round` (1-based) with the post-round graph.
    pub fn observe(&mut self, round: u64, g: &UndirectedGraph, _stats: &RoundStats) {
        if self.capped {
            return; // ceiling milestone already recorded; nothing can change
        }
        let delta = g.min_degree();
        // Saturating: the 0-node graph would underflow (cap 0 == already at
        // the ceiling, so the first observation caps the recorder).
        let cap = g.n().saturating_sub(1);
        while delta as f64 >= self.next_target || delta >= cap {
            self.milestones.push((round, delta));
            self.next_target *= self.factor;
            if delta >= cap {
                // Degree can't grow further. Latch, so fixed-horizon runs
                // that keep observing past completion don't re-emit the
                // ceiling milestone every round.
                self.capped = true;
                return;
            }
        }
    }
}

impl RoundListener<UndirectedGraph> for MinDegreeMilestones {
    fn on_round(&mut self, ev: &RoundEvent<'_, UndirectedGraph>) -> RoundControl {
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
    fn milestones_capture_growth() {
        let g = generators::cycle(32); // delta0 = 2
        let mut check = ComponentwiseComplete::for_graph(&g);
        let mut ms = MinDegreeMilestones::new(2, 1.5);
        let mut engine = Engine::new(g, Push, 9);
        let out = run_engine_listened(
            &mut engine,
            &mut Chain(&mut ms, StopWhen(&mut check)),
            1_000_000,
        );
        assert!(out.converged);
        let milestones = ms.milestones();
        assert!(
            milestones.len() >= 3,
            "expected several milestones, got {milestones:?}"
        );
        // Rounds are nondecreasing, degrees increase toward n-1.
        for w in milestones.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        assert_eq!(milestones.last().unwrap().1, 31);
    }

    #[test]
    fn milestones_survive_degenerate_graphs() {
        // Regression: the degree cap computed `n - 1`, underflowing on the
        // 0-node graph.
        use crate::process::RoundStats;
        use gossip_graph::UndirectedGraph;
        for n in [0usize, 1] {
            let g = UndirectedGraph::new(n);
            let mut ms = MinDegreeMilestones::new(1, 2.0);
            // Degree starts at the (zero) ceiling: exactly one milestone no
            // matter how many rounds keep observing.
            for round in 1..=50 {
                ms.observe(round, &g, &RoundStats::default());
            }
            assert_eq!(ms.milestones(), &[(1, 0)], "n={n}");
        }
    }

    #[test]
    fn cap_milestone_emitted_once_on_fixed_horizon_runs() {
        // A run observed past completion (Never-style horizon) must not
        // re-emit the ceiling milestone every round.
        use crate::process::RoundStats;
        let g = generators::complete(8); // min_degree 7 == cap
        let mut ms = MinDegreeMilestones::new(7, 2.0);
        for round in 1..=20 {
            ms.observe(round, &g, &RoundStats::default());
        }
        assert_eq!(ms.milestones(), &[(1, 7)]);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn recorder_rejects_zero_stride() {
        let _ = SeriesRecorder::every(0);
    }

    #[test]
    #[should_panic(expected = "growth factor")]
    fn milestones_reject_bad_factor() {
        let _ = MinDegreeMilestones::new(2, 1.0);
    }
}
