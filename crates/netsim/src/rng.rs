//! Deterministic random number generation for the simulator.
//!
//! Every source of randomness in an experiment — ECMP hash salts, MMPTCP
//! source-port draws, Poisson inter-arrival times, permutation shuffles —
//! derives from a single seeded generator so a given seed always reproduces
//! the exact same packet-level schedule.
//!
//! The generator is a self-contained xoshiro256++ (seeded through SplitMix64,
//! the reference initialisation), so the simulator has no external
//! dependencies and its streams are bit-for-bit stable across toolchains.

/// The simulator's random number generator.
///
/// A thin wrapper around a fast, seedable PRNG with a few convenience
/// helpers used by the network and transport code. Deliberately not
/// cryptographic — determinism and speed are what matter here.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into xoshiro state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        SimRng { state }
    }

    /// Derive an independent child generator. Useful for giving workload
    /// generation and packet-level randomness separate streams so adding
    /// flows does not perturb ECMP decisions of existing ones.
    pub fn fork(&mut self, label: u64) -> SimRng {
        // Mix the label in so forks with different labels are decorrelated
        // even when requested back-to-back.
        let s = self
            .next_u64()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(label.wrapping_mul(0xD1B5_4A32_D192_ED03));
        SimRng::new(s)
    }

    /// Uniform sample from an integer range, e.g. `rng.range(0..n)` or
    /// `rng.range(1..=6)`.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        let (lo, hi_inclusive) = range.bounds();
        T::sample(self, lo, hi_inclusive)
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// An exponentially distributed sample with the given mean.
    ///
    /// Used for Poisson arrival processes: inter-arrival times of a Poisson
    /// process with rate λ are Exp(mean = 1/λ).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.unit(); // in (0, 1], avoids ln(0)
        -mean * u.ln()
    }

    /// A uniformly random ephemeral (source) port in the 49152..=65535 range.
    pub fn ephemeral_port(&mut self) -> u16 {
        self.range(49152..=65535u16)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range(0..=i);
            slice.swap(i, j);
        }
    }

    /// A raw 64-bit draw (e.g. for hash salts). xoshiro256++ output function.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform u64 in `[0, bound)` by Lemire-style rejection (unbiased).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection sampling over the largest multiple of `bound`.
        let zone = u64::MAX - (u64::MAX % bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone || zone == u64::MAX {
                return v % bound;
            }
        }
    }
}

/// Integer types that [`SimRng::range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Sample uniformly from `[lo, hi]` (both inclusive).
    fn sample(rng: &mut SimRng, lo: Self, hi: Self) -> Self;
    /// The previous representable value (used to convert exclusive upper
    /// bounds into inclusive ones).
    fn prev(self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty sample range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
            fn prev(self) -> Self {
                self.checked_sub(1).expect("empty sample range")
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

/// Ranges accepted by [`SimRng::range`]: `lo..hi` and `lo..=hi`.
pub trait SampleRange<T: SampleUniform> {
    /// The `(low, high_inclusive)` bounds of the range.
    fn bounds(self) -> (T, T);
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn bounds(self) -> (T, T) {
        (self.start, self.end.prev())
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn bounds(self) -> (T, T) {
        self.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn fork_is_deterministic_and_decorrelated() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut p = SimRng::new(7);
        let mut a = p.fork(1);
        let mut b = p.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < 0.2,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn ephemeral_ports_in_range() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            let p = rng.ephemeral_port();
            assert!(p >= 49152);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0 + 1e-9));
    }

    #[test]
    fn range_covers_bounds_uniformly() {
        let mut rng = SimRng::new(13);
        let mut counts = [0usize; 6];
        for _ in 0..6000 {
            counts[rng.range(0..6usize)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 700, "value {i} drawn only {c} times");
        }
        // Inclusive ranges reach their upper bound.
        let mut hit_hi = false;
        for _ in 0..200 {
            if rng.range(0..=3u32) == 3 {
                hit_hi = true;
            }
        }
        assert!(hit_hi);
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = SimRng::new(17);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
