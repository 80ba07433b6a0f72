//! Empirical distributions: ECDFs and two-sample comparison.
//!
//! Convergence *times* are random variables; several experiments need more
//! than a mean — E14 compares the full synchronous-round and asynchronous-
//! time distributions, and robustness claims are really statements about
//! tails. A small, dependency-free ECDF with the two-sample
//! Kolmogorov–Smirnov statistic covers both.

/// An empirical cumulative distribution function over a finite sample.
///
/// ```
/// use gossip_analysis::Ecdf;
/// let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.eval(2.5), 0.5);
/// assert_eq!(e.eval(4.0), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF; sorts a copy of the sample.
    ///
    /// # Panics
    /// Panics on an empty sample or NaNs.
    pub fn new(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "empty sample");
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Ecdf { sorted }
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty samples); here for clippy's
    /// `len_without_is_empty`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `F(x)` = fraction of the sample `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point: first index with value > x.
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The underlying sorted sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

/// Two-sample Kolmogorov–Smirnov statistic `sup_x |F(x) − G(x)|`.
///
/// Evaluated exactly by a linear merge over both samples' jump points.
pub fn ks_statistic(a: &Ecdf, b: &Ecdf) -> f64 {
    let (xa, xb) = (a.values(), b.values());
    let (na, nb) = (xa.len() as f64, xb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    // Walk the union of jump points; ties must advance BOTH cursors before
    // the gap is measured, or identical samples would show phantom gaps.
    while i < xa.len() || j < xb.len() {
        let x = match (xa.get(i), xb.get(j)) {
            (Some(&u), Some(&v)) => u.min(v),
            (Some(&u), None) => u,
            (None, Some(&v)) => v,
            (None, None) => unreachable!("loop condition"),
        };
        while i < xa.len() && xa[i] == x {
            i += 1;
        }
        while j < xb.len() && xb[j] == x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

/// Rough significance threshold for the two-sample KS test at level ~0.05:
/// `1.358 * sqrt((n + m) / (n m))`. Distributions with `ks_statistic` above
/// this differ significantly; below it they are statistically compatible at
/// the sample sizes used.
pub fn ks_threshold_95(n: usize, m: usize) -> f64 {
    1.358 * (((n + m) as f64) / ((n * m) as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.eval(0.5), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(2.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn ks_identical_samples_is_zero() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0]);
        let b = Ecdf::new(&[1.0, 2.0, 3.0]);
        assert!(ks_statistic(&a, &b).abs() < 1e-12);
    }

    #[test]
    fn ks_disjoint_samples_is_one() {
        let a = Ecdf::new(&[1.0, 2.0]);
        let b = Ecdf::new(&[10.0, 20.0]);
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_hand_computed_case() {
        // A = {1, 3}, B = {2, 4}: after x=1 gap is 1/2; after 2 it's 0;
        // after 3 it's 1/2; after 4 it's 0 -> D = 1/2.
        let a = Ecdf::new(&[1.0, 3.0]);
        let b = Ecdf::new(&[2.0, 4.0]);
        assert!((ks_statistic(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_symmetry() {
        let a = Ecdf::new(&[1.0, 5.0, 9.0, 12.0]);
        let b = Ecdf::new(&[2.0, 5.5, 8.0]);
        assert!((ks_statistic(&a, &b) - ks_statistic(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn threshold_shrinks_with_samples() {
        assert!(ks_threshold_95(1000, 1000) < ks_threshold_95(10, 10));
        // At n = m = 100 the threshold is ~0.192.
        assert!((ks_threshold_95(100, 100) - 0.192).abs() < 0.001);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn rejects_empty() {
        let _ = Ecdf::new(&[]);
    }
}
