//! Deterministic pseudo-random number generation.
//!
//! Experiments must regenerate bit-identically from a seed, across platforms
//! and `rand` versions. We therefore implement the generator ourselves:
//! [`Xoshiro256`] (xoshiro256**), seeded through SplitMix64 as its authors
//! recommend. The type also implements [`rand::RngCore`] so it can drive any
//! distribution from the `rand` ecosystem.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64 step; used to expand a 64-bit seed into a full xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xoshiro256** generator (Blackman & Vigna).
///
/// Fast, 256 bits of state, passes BigCrush; more than adequate for
/// simulation workloads. Not cryptographically secure.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // An all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a double uniformly distributed in `[0, 1)`.
    ///
    /// Uses the top 53 bits, the standard full-precision construction.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a double uniformly distributed in `(0, 1]`.
    ///
    /// Useful for `-ln(u)` style inverse-CDF sampling where `u = 0` would
    /// produce infinity.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Returns an exponentially distributed value with the given mean.
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        -mean * self.next_f64_open().ln()
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method for lack of bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64_raw();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only reached with probability < bound / 2^64.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Derives an independent child generator (for per-core streams).
    ///
    /// Mixes the stream id into fresh SplitMix64 output so that sibling
    /// streams are uncorrelated.
    pub fn fork(&mut self, stream: u64) -> Xoshiro256 {
        let base = self.next_u64_raw();
        Xoshiro256::new(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

impl RngCore for Xoshiro256 {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Xoshiro256::new(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Xoshiro256::new(7);
        let mut b = Xoshiro256::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn exp_mean_close() {
        let mut r = Xoshiro256::new(11);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.15, "mean = {mean}");
    }

    #[test]
    fn bounded_covers_range_uniformly() {
        let mut r = Xoshiro256::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_bounded(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per cell; loose 10% band.
            assert!((9_000..11_000).contains(&c), "count = {c}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn bounded_zero_panics() {
        Xoshiro256::new(1).next_bounded(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With 50 elements, the identity permutation is essentially impossible.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn forked_siblings_are_uncorrelated() {
        let mut root = Xoshiro256::new(1234);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn fill_bytes_handles_remainder() {
        let mut r = Xoshiro256::new(21);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
