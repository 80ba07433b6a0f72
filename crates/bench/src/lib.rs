//! # gossip-bench
//!
//! The experiment harness: one module per paper artifact (theorem/figure),
//! each regenerating its table from scratch. The one binary, `run_all`,
//! executes the battery — all of it, or `--only E1,E19,…` — and writes
//! `results/`.
//!
//! Conventions:
//! * `--quick` shrinks sweeps for CI-speed runs; the full battery is sized
//!   for minutes, not hours, on a laptop.
//! * Every experiment prints a markdown table (for EXPERIMENTS.md), records
//!   machine-readable [`Measurement`] rows, and writes tables + measurements
//!   as CSV + JSON under `results/`.
//! * All randomness flows from `--seed` through the deterministic stream
//!   machinery, so reruns reproduce bit-identical tables — including
//!   `run_all --report`, which pools the battery across seeds (see
//!   [`report`]) and regenerates the repository's `RESULTS.md`
//!   byte-for-byte.
//!
//! See `crates/bench/README.md` for the experiment/benchmark workflow
//! (flags, criterion baselines, report mode).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{parse_args, Args, Measurement, Report};
