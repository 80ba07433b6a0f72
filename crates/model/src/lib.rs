//! `gossip-model` — bounded exhaustive model checking for the protocol
//! kernels.
//!
//! The PR-7 kernel refactor made every protocol a pure function of its
//! local view and an explicit choice stream ([`gossip_core::ProtocolKernel`]).
//! This crate exploits that purity: instead of *sampling* runs with an
//! RNG, it *enumerates* them — every connected starting topology on
//! `n <= 5` nodes ([`instance`]), every per-node choice a kernel can make
//! ([`enumerate`]), every interleaving the scheduler (lossless or
//! omission-faulty) can produce ([`checker`]) — and verifies on every
//! reachable joint state:
//!
//! - **safety** — no phantom contacts: every proposed introduction stays
//!   within the proposer's closed two-hop view with at least one endpoint
//!   a direct contact; every payload goes to a current contact and fits
//!   the kernel's declared per-message id budget (the `O(log n)`-bits
//!   claim of the paper, checked exhaustively at small `n`);
//! - **liveness** — no reachable incomplete state is stuck: some
//!   enumerated outcome always makes progress, so every fair schedule
//!   reaches full discovery (monotonicity closes the argument).
//!
//! The joint state encodes the contact rows **and**, for stateful
//! kernels, per-node cursor slots — so the throttled Name Dropper's
//! per-destination cursors are checked exhaustively, not approximated
//! away. A bounded churn layer ([`ChurnEvent`], [`check_churn_family`])
//! lets the adversary interleave join/leave events with rounds, proving
//! no-phantom-contact safety under dynamic membership.
//!
//! Violations come back as [`Counterexample`]s with a minimal-in-steps
//! trace of adversary decisions; [`broken`] ships intentionally buggy
//! kernels proving the checker actually catches both property classes
//! (plus a stale-memory kernel only the churn layer can catch).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]

pub mod broken;
pub mod checker;
pub mod enumerate;
pub mod instance;
pub mod markov;

pub use broken::{PhantomPush, StalePeerPush, StallingPush};
pub use checker::{
    check_all, check_churn_family, check_kernel_with, churn_scripts, CheckConfig, CheckStats,
    ChurnEvent, Counterexample, Schedule, TraceStep, Violation,
};
pub use enumerate::{node_menu, Outcome, World};
pub use instance::{all_instances, connected_instances, pair_index, Instance, MAX_N};
pub use markov::{exact_expected_rounds, find_nonmonotone_pairs, NonMonotonePair};
