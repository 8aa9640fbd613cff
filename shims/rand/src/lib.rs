//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses. The container this repository builds in has no crates.io access,
//! so the real crate is replaced by this deterministic shim: a
//! xoshiro256** generator seeded through SplitMix64, with the `Rng`,
//! `SeedableRng`, and `distributions::{Distribution, WeightedIndex}`
//! surfaces the workspace calls (`WeightedIndex` only as the test oracle
//! of the graph generator's sampler). Identical seeds produce identical
//! streams on every platform, which is all the experiments require.

/// Core entropy source: 64 random bits per call.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly over their full domain by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// The user-facing generator trait.
pub trait Rng: RngCore {
    /// A uniform value over the output type's full domain (`[0, 1)` for
    /// floats).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform value in `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_range(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits over [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                // Widening-multiply bounded sampling; the ~2^-64 bias is
                // irrelevant for synthetic workloads.
                let hi = ((rng.next_u64() as u128 * span) >> 64) as $t;
                self.start.wrapping_add(hi)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                let hi = ((rng.next_u64() as u128 * span) >> 64) as $t;
                start.wrapping_add(hi)
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let u: f64 = f64::sample_standard(rng);
                self.start + (u as $t) * (self.end - self.start)
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// xoshiro256** — fast, high-quality, and deterministic. (The real
    /// `StdRng` is ChaCha12; any fixed algorithm serves the simulator's
    /// needs equally.)
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Alias: the shim uses one algorithm for every generator.
    pub type SmallRng = StdRng;
}

/// Distributions over non-uniform domains.
pub mod distributions {
    use super::{Rng, RngCore};

    /// A distribution producing values of type `T`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Samples indices proportionally to a weight table (cumulative-sum +
    /// binary search).
    #[derive(Debug, Clone)]
    pub struct WeightedIndex {
        cumulative: Vec<f64>,
        total: f64,
    }

    impl WeightedIndex {
        /// Builds the sampler; errors if no weight is positive or any
        /// weight is negative/non-finite.
        pub fn new<'a, I>(weights: I) -> Result<Self, WeightedError>
        where
            I: IntoIterator<Item = &'a f64>,
        {
            let mut cumulative = Vec::new();
            let mut total = 0.0f64;
            for &w in weights {
                // NaN must be rejected too, so compare via is_sign/finite
                // rather than a plain `w < 0.0`.
                if w.is_nan() || w < 0.0 || !w.is_finite() {
                    return Err(WeightedError::InvalidWeight);
                }
                total += w;
                cumulative.push(total);
            }
            if total <= 0.0 {
                return Err(WeightedError::AllWeightsZero);
            }
            Ok(WeightedIndex { cumulative, total })
        }
    }

    impl Distribution<usize> for WeightedIndex {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
            let x: f64 = rng.gen::<f64>() * self.total;
            // First index whose cumulative weight exceeds x.
            match self
                .cumulative
                .binary_search_by(|c| c.partial_cmp(&x).expect("finite weights"))
            {
                Ok(i) => (i + 1).min(self.cumulative.len() - 1),
                Err(i) => i.min(self.cumulative.len() - 1),
            }
        }
    }

    /// Errors from [`WeightedIndex::new`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WeightedError {
        /// A weight was negative, NaN, or infinite.
        InvalidWeight,
        /// The weight table summed to zero.
        AllWeightsZero,
    }

    impl core::fmt::Display for WeightedError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                WeightedError::InvalidWeight => write!(f, "invalid weight"),
                WeightedError::AllWeightsZero => write!(f, "all weights zero"),
            }
        }
    }

    impl std::error::Error for WeightedError {}
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, WeightedIndex};
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn identical_seeds_identical_streams() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0usize..=3);
            assert!(w <= 3);
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let weights = vec![0.0, 1.0, 9.0];
        let dist = WeightedIndex::new(&weights).unwrap();
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1] * 5, "{counts:?}");
    }
}
