//! Counter-indexed random streams.
//!
//! The stochastic harvest sources used to carry sequential `StdRng` state:
//! every draw advanced a hidden counter, so *skipping* a provably-steady
//! stretch still had to replay one draw per elided query to keep the stream
//! bit-exact (see the `skip_ticks` machinery removed in PR 9).  [`CounterRng`]
//! removes that floor: each draw is a pure function of `(stream_seed, index)`
//! in the Philox/Random123 spirit, where the index is a *domain-meaningful*
//! counter (a tick, an RFID cycle number, a Markov switch count).  Skipping N
//! draws then costs nothing — there is no stream position to advance — and
//! querying out of order returns the same values as querying in order.
//!
//! [`mix64`] is the SplitMix64-style finalizer the whole workspace already
//! uses for seed derivation (the scenario crate calls it directly): for a
//! fixed seed, `mix64(seed, index)` over incrementing indices *is* SplitMix64
//! up to the constant-offset state, so the per-stream output quality matches
//! the sequential generator it replaces.  Floats are built with the same
//! 53-bit construction as the compat `rand` crate, keeping the distributions
//! of jitter/noise/dwell draws identical in shape to the pre-PR-9 streams
//! (the concrete values change once — a documented, re-blessed transition).

/// Mixes two 64-bit values into one well-distributed word.
///
/// This is the workspace's canonical SplitMix64-style finalizer; it is both
/// the seed-derivation mix of the scenario crate and the per-draw function
/// of [`CounterRng`].
#[must_use]
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut z = (a ^ 0xA076_1D64_78BD_642F).wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-indexed random stream: every value is a pure function of the
/// stream seed and a caller-supplied index, so any draw can be produced (or
/// skipped) in O(1) and in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
}

impl CounterRng {
    /// Creates a stream from its seed.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The stream's seed.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw 64-bit word at `index`.
    #[must_use]
    pub fn word(&self, index: u64) -> u64 {
        mix64(self.seed, index)
    }

    /// A uniform draw in `[0, 1)` at `index`, using the same 53-bit float
    /// construction as the compat `rand` crate's `gen::<f64>()`.
    #[must_use]
    pub fn unit_f64(&self, index: u64) -> f64 {
        (self.word(index) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[low, high)` at `index`, using the same affine map
    /// as the compat `rand` crate's `gen_range(low..high)`.
    #[must_use]
    pub fn range_f64(&self, index: u64, low: f64, high: f64) -> f64 {
        low + self.unit_f64(index) * (high - low)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_and_order_independent() {
        let rng = CounterRng::new(0xD1AC);
        let forward: Vec<u64> = (0..64).map(|i| rng.word(i)).collect();
        let backward: Vec<u64> = (0..64).rev().map(|i| rng.word(i)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn distinct_seeds_and_indices_decorrelate() {
        let a = CounterRng::new(1);
        let b = CounterRng::new(2);
        assert_ne!(a.word(0), b.word(0));
        assert_ne!(mix64(0, 0), 0);
        let mut words: Vec<u64> = (0..1000).map(|i| a.word(i)).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), 1000);
    }

    #[test]
    fn unit_draws_stay_in_the_half_open_interval() {
        let rng = CounterRng::new(7);
        for i in 0..10_000 {
            let u = rng.unit_f64(i);
            assert!((0.0..1.0).contains(&u), "index {i}: {u}");
        }
    }

    #[test]
    fn range_draws_match_the_affine_map() {
        let rng = CounterRng::new(9);
        for i in 0..1000 {
            let u = rng.unit_f64(i);
            let r = rng.range_f64(i, -0.3, 0.3);
            assert_eq!(r, -0.3 + u * 0.6, "index {i}");
        }
    }
}
