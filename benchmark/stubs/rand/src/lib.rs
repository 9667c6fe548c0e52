//! Stand-in for the subset of `rand` 0.8 that `topk-datagen` and
//! `minispark` call: `StdRng::seed_from_u64`, `Rng::{gen, gen_range,
//! gen_bool}` and `SliceRandom::shuffle`.
//!
//! The generator is xoshiro256** seeded through splitmix64, not rand's
//! ChaCha12, so a seed yields a different (equally deterministic) stream
//! than the published crate. Benchmark inputs are therefore specific to
//! this stand-in; same seed ⇒ same inputs still holds.

use std::ops::{Range, RangeInclusive};

/// The raw 64-bit source every generator implements.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        // cast(the high 32 bits of a u64 fit a u32)
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose whole stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Generate {
    /// Draws one value.
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Generate for u64 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Generate for u32 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Generate for bool {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Generate for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // cast(both operands are at most 2^53 and so exact in f64)
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value of the range; panics on an empty range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `[0, span)` by widening multiplication with rejection
/// (Lemire), so small spans carry no modulo bias.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    assert!(span > 0, "cannot sample an empty range");
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        // cast(the low and the high 64 bits of the 128-bit product, each taken on purpose)
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                // cast(the span of an unsigned range of at most 64 bits fits u64; a draw below it fits the type)
                self.start + below(rng, (self.end - self.start) as u64) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample an empty range");
                // cast(as above; a full-width range takes the raw 64 bits)
                match ((end - start) as u64).checked_add(1) {
                    Some(span) => start + below(rng, span) as $t,
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        self.start + f64::generate(rng) * (self.end - self.start)
    }
}

/// The user-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution.
    fn gen<T: Generate>(&mut self) -> T {
        T::generate(self)
    }

    /// A uniform value of `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p = {p} is not a probability");
        f64::generate(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** (Blackman & Vigna), seeded through splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    /// In-place random permutation.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = a.gen_range(3u32..9);
            assert_eq!(x, b.gen_range(3u32..9));
            assert!((3..9).contains(&x));
            let f: f64 = a.gen();
            assert_eq!(f, b.gen::<f64>());
            assert!((0.0..1.0).contains(&f));
            assert!((1..=25).contains(&a.gen_range(1usize..=25)));
            let _ = b.gen_range(1usize..=25);
        }
        assert_ne!(
            StdRng::seed_from_u64(1).gen::<u64>(),
            StdRng::seed_from_u64(2).gen::<u64>()
        );
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut StdRng::seed_from_u64(3));
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<u32>>());
    }
}
