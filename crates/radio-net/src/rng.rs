//! Deterministic random streams.
//!
//! Every simulation in this workspace is reproducible from a single `u64`
//! seed. Distinct consumers (the topology generator, each protocol node,
//! each experiment repetition) derive *independent* streams by mixing the
//! master seed with a salt through SplitMix64, the standard seed-expansion
//! finalizer. This keeps topology randomness independent of protocol
//! randomness: re-running a protocol with a different seed on the "same
//! seeded topology" is possible by construction.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One step of the SplitMix64 mixing function.
///
/// Used as a seed expander: it is a bijection on `u64` with excellent
/// avalanche behaviour, so `mix(seed ^ salt)` gives well-separated seeds
/// for nearby salts.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a reproducible RNG stream from `(seed, salt)`.
///
/// Streams with different salts are computationally independent. Protocol
/// nodes conventionally use their node index as the salt; harness-level
/// consumers use the constants in [`salts`].
///
/// ```
/// use radio_net::rng::stream;
/// use rand::Rng;
///
/// let mut a = stream(42, 0);
/// let mut b = stream(42, 0);
/// let mut c = stream(42, 1);
/// let (x, y, z): (u64, u64, u64) = (a.gen(), b.gen(), c.gen());
/// assert_eq!(x, y); // same (seed, salt) => same stream
/// assert_ne!(x, z); // different salt => different stream
/// ```
#[must_use]
pub fn stream(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(salt)))
}

/// Conventional salts for harness-level consumers, kept distinct from node
/// indices (which occupy the low range).
pub mod salts {
    /// Topology generation.
    pub const TOPOLOGY: u64 = 0xF00D_0000_0000_0001;
    /// Packet placement (which nodes initially hold which packets).
    pub const WORKLOAD: u64 = 0xF00D_0000_0000_0002;
    /// Monte-Carlo analysis experiments.
    pub const ANALYSIS: u64 = 0xF00D_0000_0000_0003;
    /// Uniform reception-loss sampling ([`crate::faults::UniformLoss`]).
    /// The value predates the `salts` table (it was hard-coded in the
    /// engine's original loss path) and must stay unchanged so
    /// fixed-seed lossy runs remain bit-identical.
    pub const LOSS: u64 = 0xC4A5_0FF5;
    /// Per-edge Gilbert–Elliott channels; XORed with the edge key
    /// ([`crate::faults::GilbertElliott`]).
    pub const GILBERT: u64 = 0xF00D_0000_0000_0004;
    /// Crash/recover timeline generation ([`crate::faults::CrashSchedule`]).
    pub const CRASH: u64 = 0xF00D_0000_0000_0005;
    /// Wake-up corruption sampling ([`crate::faults::WakeupCorrupt`]).
    pub const WAKEUP: u64 = 0xF00D_0000_0000_0006;
    /// Per-round edge-flip sampling ([`crate::dyntopo::EdgeChurn`]).
    pub const CHURN: u64 = 0xF00D_0000_0000_0007;
    /// Random-waypoint positions and destinations
    /// ([`crate::dyntopo::Waypoint`]).
    pub const WAYPOINT: u64 = 0xF00D_0000_0000_0008;
    /// Partition side assignment ([`crate::dyntopo::PartitionHeal`]).
    pub const PARTITION: u64 = 0xF00D_0000_0000_0009;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Avalanche sanity: flipping one input bit flips many output bits.
        let d = (splitmix64(0) ^ splitmix64(1)).count_ones();
        assert!(d >= 16, "only {d} bits differ");
    }

    #[test]
    fn streams_reproducible() {
        let a: Vec<u32> = stream(7, 3)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = stream(7, 3)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn nearby_salts_decorrelate() {
        let a: u64 = stream(7, 0).gen();
        let b: u64 = stream(7, 1).gen();
        let c: u64 = stream(8, 0).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
