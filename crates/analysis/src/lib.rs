//! # gossip-analysis
//!
//! Analysis toolkit for the *Discovery through Gossip* reproduction:
//!
//! * [`markov`] — **exact** expected convergence times for the push/pull
//!   processes on small graphs via absorbing-chain analysis with per-node
//!   proposal-distribution convolution. This is what verifies the paper's
//!   Figure 1(c) non-monotonicity example *exactly* rather than
//!   statistically, and powers the exhaustive 4-node counterexample search.
//! * [`stats`] — Welford accumulators, confidence intervals, percentiles.
//! * [`bootstrap`] — seeded percentile-bootstrap confidence intervals
//!   (deterministic, so reports rebuild byte-for-byte).
//! * [`fit`] — asymptotic model fitting against the paper's candidate growth
//!   laws (`n`, `n log n`, `n log² n`, `n²`, `n² log n`) plus log-log
//!   regression for model-free exponents.
//! * [`table`] — markdown/CSV result tables shared by the experiment
//!   binaries.
//!
//! ```
//! use gossip_analysis::markov::{exact_expected_rounds, ProcessKind};
//! use gossip_graph::generators;
//!
//! let (g, h) = generators::nonmonotone_pair();
//! let slow = exact_expected_rounds(&g, ProcessKind::Push);
//! let fast = exact_expected_rounds(&h, ProcessKind::Push);
//! assert!(slow > fast, "Figure 1(c): the supergraph is slower");
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bootstrap;
pub mod distribution;
pub mod fit;
pub mod markov;
pub mod stats;
pub mod table;

pub use bootstrap::{bootstrap_ci_of, bootstrap_mean_ci, ConfidenceInterval};
pub use distribution::{ks_statistic, ks_threshold_95, Ecdf};
pub use fit::{fit_model, loglog_exponent, ols, rank_models, GrowthModel, ModelFit, OlsFit};
pub use markov::{exact_expected_rounds, find_nonmonotone_pairs, NonMonotonePair, ProcessKind};
pub use stats::{Fnv1a, OnlineStats, Summary};
pub use table::{fmt_f64, Table};
