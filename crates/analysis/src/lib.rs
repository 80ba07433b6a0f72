//! # gossip-analysis
//!
//! Statistics toolkit for the *Discovery through Gossip* reproduction. It
//! knows nothing of graphs or protocols: the exact Markov-chain analysis
//! lives in `gossip-model`'s `markov` module, beside the kernels it reads.
//!
//! * [`stats`] — Welford accumulators, confidence intervals, percentiles.
//! * [`bootstrap`] — seeded percentile-bootstrap confidence intervals
//!   (deterministic, so reports rebuild byte-for-byte).
//! * [`distribution`] — empirical CDFs and the two-sample
//!   Kolmogorov–Smirnov statistic.
//! * [`fit`] — asymptotic model fitting against the paper's candidate growth
//!   laws (`n`, `n log n`, `n log² n`, `n²`, `n² log n`) plus log-log
//!   regression for model-free exponents.
//! * [`table`] — markdown/CSV result tables shared by the experiment
//!   binaries.
//!
//! ```
//! use gossip_analysis::Summary;
//!
//! // Rounds to convergence from five Monte Carlo trials.
//! let s = Summary::of_rounds(&[9, 11, 10, 12, 8]);
//! assert_eq!((s.count, s.mean, s.median), (5, 10.0, 10.0));
//! assert!(s.ci95 > 0.0, "five distinct samples have a nonzero interval");
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bootstrap;
pub mod distribution;
pub mod fit;
pub mod stats;
pub mod table;

pub use bootstrap::{bootstrap_ci_of, bootstrap_mean_ci, ConfidenceInterval};
pub use distribution::{ks_statistic, ks_threshold_95, Ecdf};
pub use fit::{fit_model, loglog_exponent, ols, rank_models, GrowthModel, ModelFit, OlsFit};
pub use stats::{Fnv1a, OnlineStats, Summary};
pub use table::{fmt_f64, Table};
