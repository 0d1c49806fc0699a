//! The load generator's deterministic random source.
//!
//! SplitMix64: every stream is a pure function of its seed, so a load run
//! is reproducible byte-for-byte from the `(seed)` recorded in its
//! artifact, and per-thread streams can be forked from one seed without
//! coordination (stream `k` is `seed` advanced through a golden-ratio
//! offset, the standard SplitMix64 stream-splitting construction). No
//! registry access for a real RNG crate — and reproducibility is the point
//! anyway. The mix is `scr_kernel::retry::mix64`, the one the retry
//! jitter, the fault plans and the differential campaign's shuffle share.

use scr_kernel::retry::{mix64, GOLDEN};

/// A 64-bit SplitMix64 generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator seeded with `seed` (any value, including 0, is fine —
    /// SplitMix64 has no weak seeds).
    pub fn new(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    /// An independent stream derived from `seed` for substream `stream`
    /// (per-thread forks of one run seed).
    pub fn stream(seed: u64, stream: u64) -> Rng64 {
        // Decorrelate the substream index through one SplitMix64 round
        // before mixing it into the seed.
        Rng64::new(seed ^ mix64(stream.wrapping_mul(GOLDEN)))
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        out
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `[0, n)`.
    pub fn next_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_and_streams_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut s0 = Rng64::stream(7, 0);
        let mut s1 = Rng64::stream(7, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
    }

    #[test]
    fn floats_land_in_the_unit_interval_and_cover_it() {
        let mut rng = Rng64::new(9);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            lo |= f < 0.1;
            hi |= f > 0.9;
        }
        assert!(lo && hi, "10k draws should cover both tails");
    }
}
