//! Summary statistics for Monte Carlo round counts.

/// Streaming mean/variance via Welford's algorithm — numerically stable for
/// long accumulations, O(1) memory.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn sem(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.stddev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of a ~95% normal confidence interval for the mean.
    pub fn ci95(&self) -> f64 {
        1.96 * self.sem()
    }

    /// Smallest observation (NaN-free input assumed).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Batch summary of a sample: mean, spread, and order statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Half-width of the 95% CI for the mean.
    pub ci95: f64,
    /// Minimum.
    pub min: f64,
    /// Median (interpolated).
    pub median: f64,
    /// Maximum.
    pub max: f64,
    /// 10th percentile (interpolated).
    pub p10: f64,
    /// 90th percentile (interpolated).
    pub p90: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let mut acc = OnlineStats::new();
        for &v in values {
            acc.push(v);
        }
        Summary {
            count: values.len(),
            mean: acc.mean(),
            stddev: acc.stddev(),
            ci95: acc.ci95(),
            min: sorted[0],
            median: percentile_sorted(&sorted, 50.0),
            max: *sorted.last().unwrap(),
            p10: percentile_sorted(&sorted, 10.0),
            p90: percentile_sorted(&sorted, 90.0),
        }
    }

    /// Summarizes integer round counts.
    pub fn of_rounds(rounds: &[u64]) -> Summary {
        let vals: Vec<f64> = rounds.iter().map(|&r| r as f64).collect();
        Summary::of(&vals)
    }
}

/// Tukey-fence outlier counts for one sample, in criterion's taxonomy:
/// *mild* outliers sit more than `1.5 × IQR` outside the quartiles, *severe*
/// ones more than `3 × IQR`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutlierCounts {
    /// Below `Q1 - 3 · IQR`.
    pub low_severe: usize,
    /// In `[Q1 - 3 · IQR, Q1 - 1.5 · IQR)`.
    pub low_mild: usize,
    /// In `(Q3 + 1.5 · IQR, Q3 + 3 · IQR]`.
    pub high_mild: usize,
    /// Above `Q3 + 3 · IQR`.
    pub high_severe: usize,
}

impl OutlierCounts {
    /// Total outliers of any class.
    pub fn total(&self) -> usize {
        self.low_severe + self.low_mild + self.high_mild + self.high_severe
    }
}

/// Classifies each observation against the sample's own Tukey fences.
///
/// Quartiles are linearly interpolated ([`percentile_sorted`]). With fewer
/// than 4 observations the quartile estimate is meaningless, so every value
/// is counted as an inlier (all counts zero) — including the empty sample.
pub fn classify_outliers(values: &[f64]) -> OutlierCounts {
    if values.len() < 4 {
        return OutlierCounts::default();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let q1 = percentile_sorted(&sorted, 25.0);
    let q3 = percentile_sorted(&sorted, 75.0);
    let iqr = q3 - q1;
    let (mild_lo, mild_hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    let (severe_lo, severe_hi) = (q1 - 3.0 * iqr, q3 + 3.0 * iqr);
    let mut counts = OutlierCounts::default();
    for &v in &sorted {
        if v < severe_lo {
            counts.low_severe += 1;
        } else if v < mild_lo {
            counts.low_mild += 1;
        } else if v > severe_hi {
            counts.high_severe += 1;
        } else if v > mild_hi {
            counts.high_mild += 1;
        }
    }
    counts
}

/// Mean of the observations inside the sample's own mild Tukey fences
/// (`[Q1 - 1.5·IQR, Q3 + 1.5·IQR]`) — a stall-robust location estimate.
///
/// Benchmark samples on shared hardware are contaminated one-sidedly:
/// a preempted iteration runs 5–10× slow, never fast. The plain mean
/// moves with every stall; the trimmed mean ignores them, so
/// baseline comparisons (the CI perf ratchet) gate on this estimator.
/// With fewer than 4 observations the fences are meaningless and the
/// plain mean is returned; a sample whose IQR is 0 keeps only the modal
/// values, which is exactly the robust answer there.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let full = Summary::of(values).mean;
    if values.len() < 4 {
        return full;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let q1 = percentile_sorted(&sorted, 25.0);
    let q3 = percentile_sorted(&sorted, 75.0);
    let iqr = q3 - q1;
    let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    let kept: Vec<f64> = sorted
        .iter()
        .copied()
        .filter(|&v| v >= lo && v <= hi)
        .collect();
    if kept.is_empty() {
        full
    } else {
        Summary::of(&kept).mean
    }
}

/// Streaming FNV-1a 64-bit hasher: the workspace's one implementation of
/// the deterministic non-cryptographic hash used for derived seeds
/// (report bootstrap seeds) and structural checksums (sharded-graph row
/// checksums in `gossip-bench`). Not for hash tables — for reproducible
/// fingerprints of small keys and large streams alike.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds one `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().write(bytes).finish()
}

/// Linear-interpolated percentile of an ascending-sorted slice, `p` in 0..=100.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    mod trimmed {
        use crate::stats::trimmed_mean;

        #[test]
        fn ignores_one_sided_stalls() {
            // 19 clean samples near 100 plus one 10x stall: the plain mean
            // is dragged to ~145, the trimmed mean stays at the mode.
            let mut v = vec![100.0; 19];
            v.push(1000.0);
            assert!((trimmed_mean(&v) - 100.0).abs() < 1e-9);
        }

        #[test]
        fn equals_mean_on_clean_samples() {
            let v = [98.0, 99.0, 100.0, 101.0, 102.0];
            assert!((trimmed_mean(&v) - 100.0).abs() < 1e-9);
        }

        #[test]
        fn small_samples_fall_back_to_mean() {
            assert!((trimmed_mean(&[10.0, 20.0, 90.0]) - 40.0).abs() < 1e-9);
        }
    }

    use super::*;

    #[test]
    fn welford_matches_direct_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance with Bessel correction: 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let b = OnlineStats::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = OnlineStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 3.0);
        assert_eq!(percentile_sorted(&sorted, 25.0), 2.0);
        assert!((percentile_sorted(&sorted, 10.0) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn summary_of_rounds() {
        let s = Summary::of_rounds(&[10, 20, 30, 40]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 25.0).abs() < 1e-12);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 40.0);
        assert!((s.median - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_rejects_empty() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn outliers_too_few_samples_all_inliers() {
        assert_eq!(classify_outliers(&[]), OutlierCounts::default());
        assert_eq!(classify_outliers(&[1e9]), OutlierCounts::default());
        assert_eq!(classify_outliers(&[0.0, 1e9]), OutlierCounts::default());
        assert_eq!(
            classify_outliers(&[0.0, 0.0, 1e9]),
            OutlierCounts::default()
        );
    }

    #[test]
    fn outliers_classified_by_fence() {
        // Sorted sample: [-20, -5, 1..=10, 15, 30] (n = 14). Interpolated
        // quartiles: Q1 = 2.25, Q3 = 8.75, IQR = 6.5 -> mild fences at
        // [-7.5, 18.5], severe at [-17.25, 28.25]. So -20 and 30 are severe,
        // while -5 and 15 sit inside the mild fences.
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        xs.extend([15.0, 30.0, -5.0, -20.0]);
        let c = classify_outliers(&xs);
        assert_eq!(
            c,
            OutlierCounts {
                low_severe: 1,
                low_mild: 0,
                high_mild: 0,
                high_severe: 1
            }
        );
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn outliers_severe_beyond_triple_iqr() {
        // Tight core with one extreme point: 10 copies of 0..=9 plus 1000.
        let mut xs: Vec<f64> = (0..10).map(f64::from).collect();
        xs.push(1000.0);
        let c = classify_outliers(&xs);
        assert_eq!(c.high_severe, 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn outliers_constant_sample_is_clean() {
        let c = classify_outliers(&[5.0; 16]);
        assert_eq!(c, OutlierCounts::default());
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        for i in 0..10 {
            small.push(i as f64);
        }
        for i in 0..1000 {
            large.push((i % 10) as f64);
        }
        assert!(large.ci95() < small.ci95());
    }
}
