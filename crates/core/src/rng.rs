//! Deterministic, parallel-safe randomness.
//!
//! Every random decision in a simulation is drawn from a [`SmallRng`] keyed
//! by `(experiment seed, round, node)` through a SplitMix64-style mixer.
//! This is the *counter-based RNG stream* design (cf. Philox/Random123): the
//! stream for a node's round is a pure function of its coordinates, so
//!
//! * sequential and rayon-parallel execution are **bit-identical**, and
//! * any (round, node) decision can be replayed in isolation,
//!
//! at the cost of a fresh stream per node per round: the key mix, then
//! SplitMix64's four words written straight into the xoshiro state, all
//! inlined. On a 2-vCPU x86-64 (Xeon) container, `stream_rng` plus one
//! `random_range(0..1000)` takes about 7 ns per node. It took 24–28 ns while
//! seeding went through a 32-byte array and an out-of-line `from_seed`, and
//! every draw paid a 64-bit division; that was about a quarter of a
//! converging push round at n = 512.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Finalizer from SplitMix64 (Steele, Lea, Flood 2014): full-avalanche
/// 64-bit mix.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the stream key for `(seed, round, node)`.
///
/// Each coordinate passes through its own mix before combining so that
/// adjacent rounds/nodes land in unrelated streams (a plain XOR of small
/// integers would correlate low bits).
#[inline]
pub fn stream_key(seed: u64, round: u64, node: u64) -> u64 {
    splitmix64(
        seed ^ splitmix64(round.wrapping_mul(0xA24B_AED4_963E_E407))
            ^ splitmix64(node.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
    )
}

/// The per-(round, node) RNG. `SmallRng` (xoshiro-family) seeded from the
/// stream key; cheap to construct, statistically solid for simulation.
#[inline]
pub fn stream_rng(seed: u64, round: u64, node: u64) -> SmallRng {
    SmallRng::seed_from_u64(stream_key(seed, round, node))
}

/// Derives the seed for trial `t` of a Monte Carlo batch.
#[inline]
pub fn trial_seed(base_seed: u64, trial: usize) -> u64 {
    splitmix64(base_seed ^ (trial as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn splitmix_known_values_are_stable() {
        // Pinned outputs: determinism across builds is a contract (trace
        // replay and seq/par equivalence depend on it).
        assert_eq!(splitmix64(0), 16294208416658607535);
        assert_eq!(splitmix64(1), 10451216379200822465);
        assert_eq!(splitmix64(0xDEADBEEF), 5395234354446855067);
    }

    #[test]
    fn stream_keys_distinct_across_coordinates() {
        let mut seen = HashSet::new();
        for seed in 0..4u64 {
            for round in 0..16u64 {
                for node in 0..16u64 {
                    assert!(seen.insert(stream_key(seed, round, node)));
                }
            }
        }
    }

    #[test]
    fn stream_rng_reproducible() {
        let mut a = stream_rng(42, 7, 3);
        let mut b = stream_rng(42, 7, 3);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = stream_rng(42, 7, 4);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn trial_seeds_distinct() {
        let mut seen = HashSet::new();
        for t in 0..1000 {
            assert!(seen.insert(trial_seed(99, t)));
        }
    }

    #[test]
    fn low_bit_balance() {
        // The lowest bit of stream keys over consecutive nodes should be
        // roughly balanced — a weak but cheap avalanche check.
        let ones: u32 = (0..1000).map(|i| (stream_key(1, 0, i) & 1) as u32).sum();
        assert!((400..=600).contains(&ones), "low-bit bias: {ones}/1000");
    }
}
