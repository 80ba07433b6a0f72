//! # gossip-baselines
//!
//! The resource-discovery algorithms the paper positions itself against,
//! implemented over a shared directed [`knowledge::Knowledge`] state with
//! byte-honest message accounting:
//!
//! * [`NameDropper`] — Harchol-Balter–Leighton–Lewin (PODC 1999): random
//!   neighbor gets your whole contact list. `O(log² n)` rounds, `Θ(n log n)`
//!   bits per message.
//! * [`PointerJump`] — pull variant from the same lineage: learn all
//!   contacts of a random contact.
//! * [`ThrottledNameDropper`] — Name Dropper under the paper's
//!   `O(log n)`-bits-per-message constraint, with the per-destination cursor
//!   state the paper says such an adaptation requires.
//! * [`Flooding`] — deterministic diameter-round completion at maximum
//!   bandwidth; the round-complexity envelope.
//!
//! The push/pull processes themselves live in `gossip-core`; experiment
//! `run_all --only E10` puts all of them in one table (rounds vs message size vs
//! total traffic).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithm;
pub mod flooding;
pub mod knowledge;
pub mod name_dropper;
pub mod pointer_jump;
pub mod throttled;

pub use algorithm::{id_bits, DiscoveryAlgorithm, DiscoveryOutcome, RoundIO};
pub use flooding::Flooding;
pub use knowledge::Knowledge;
pub use name_dropper::NameDropper;
pub use pointer_jump::PointerJump;
pub use throttled::ThrottledNameDropper;
