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
