//! Aggregating per-round series across Monte Carlo trials.
//!
//! Experiments that report a *trajectory* (minimum degree over rounds, edge
//! growth curves) need the mean ± CI of a quantity at each sampled round
//! across trials of different lengths. [`align_series`] does this on a
//! common grid: trial `i` contributes its last-known value at every grid
//! point up to its own final round (step interpolation — the natural choice
//! for monotone counters like edges and degrees).

use crate::stats::OnlineStats;

/// One aggregated grid point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggregatePoint {
    /// Grid round.
    pub round: u64,
    /// Mean across trials still running at (or stopped before) this round.
    pub mean: f64,
    /// Half-width of the 95% CI.
    pub ci95: f64,
    /// Trials contributing (all of them, by step-extension).
    pub count: u64,
}

/// Aligns `trials` — each a `(round, value)` series sorted by round — onto a
/// uniform grid with `grid_points` points spanning `[0, max_round]`, using
/// step ("last observation carried forward") interpolation.
///
/// # Panics
/// Panics if any trial is empty, unsorted, or `grid_points == 0`.
pub fn align_series(trials: &[Vec<(u64, f64)>], grid_points: usize) -> Vec<AggregatePoint> {
    assert!(grid_points > 0, "grid must have at least one point");
    assert!(!trials.is_empty(), "no trials to aggregate");
    for t in trials {
        assert!(!t.is_empty(), "empty trial series");
        assert!(
            t.windows(2).all(|w| w[0].0 <= w[1].0),
            "trial series must be sorted by round"
        );
    }
    let max_round = trials.iter().map(|t| t.last().unwrap().0).max().unwrap();
    let grid: Vec<u64> = (0..grid_points)
        .map(|i| {
            if grid_points == 1 {
                max_round
            } else {
                max_round * i as u64 / (grid_points as u64 - 1)
            }
        })
        .collect();

    let mut out = Vec::with_capacity(grid_points);
    // Per-trial cursor into its series.
    let mut cursors = vec![0usize; trials.len()];
    for &g in &grid {
        let mut acc = OnlineStats::new();
        for (t, series) in trials.iter().enumerate() {
            // Advance cursor to the last point with round <= g.
            while cursors[t] + 1 < series.len() && series[cursors[t] + 1].0 <= g {
                cursors[t] += 1;
            }
            // Before a trial's first sample, carry its first value backward.
            let v = if series[cursors[t]].0 > g {
                series[0].1
            } else {
                series[cursors[t]].1
            };
            acc.push(v);
        }
        out.push(AggregatePoint {
            round: g,
            mean: acc.mean(),
            ci95: acc.ci95(),
            count: acc.count(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_trial_identity_on_grid() {
        let t = vec![vec![(0u64, 1.0), (10, 2.0), (20, 3.0)]];
        let agg = align_series(&t, 3);
        assert_eq!(agg.len(), 3);
        assert_eq!(agg[0].round, 0);
        assert_eq!(agg[0].mean, 1.0);
        assert_eq!(agg[1].round, 10);
        assert_eq!(agg[1].mean, 2.0);
        assert_eq!(agg[2].round, 20);
        assert_eq!(agg[2].mean, 3.0);
    }

    #[test]
    fn step_interpolation_carries_forward() {
        let t = vec![vec![(0u64, 5.0), (100, 10.0)]];
        let agg = align_series(&t, 5);
        // Points at rounds 0, 25, 50, 75, 100: value stays 5 until 100.
        assert_eq!(agg[1].mean, 5.0);
        assert_eq!(agg[3].mean, 5.0);
        assert_eq!(agg[4].mean, 10.0);
    }

    #[test]
    fn short_trials_extend_with_final_value() {
        // Trial 1 converged early at value 4; trial 2 runs to 100 ending at 8.
        let trials = vec![vec![(0u64, 0.0), (10, 4.0)], vec![(0u64, 0.0), (100, 8.0)]];
        let agg = align_series(&trials, 2);
        assert_eq!(agg[1].round, 100);
        assert_eq!(agg[1].mean, 6.0); // (4 + 8) / 2
        assert_eq!(agg[1].count, 2);
    }

    #[test]
    fn mean_and_ci_across_trials() {
        let trials: Vec<Vec<(u64, f64)>> = (0..10)
            .map(|i| vec![(0u64, i as f64), (10, i as f64 + 1.0)])
            .collect();
        let agg = align_series(&trials, 2);
        assert!((agg[0].mean - 4.5).abs() < 1e-12);
        assert!((agg[1].mean - 5.5).abs() < 1e-12);
        assert!(agg[0].ci95 > 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn rejects_unsorted() {
        let t = vec![vec![(10u64, 1.0), (0, 2.0)]];
        let _ = align_series(&t, 2);
    }

    #[test]
    #[should_panic(expected = "empty trial")]
    fn rejects_empty_trial() {
        let t: Vec<Vec<(u64, f64)>> = vec![vec![]];
        let _ = align_series(&t, 2);
    }
}
