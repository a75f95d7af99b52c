//! Offline stand-in for `rand` 0.8: `StdRng` is SplitMix64, not ChaCha12,
//! so seeded streams differ from the published crate's. Only the calls the
//! product crates make are provided.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A type `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[low, high)`.
    fn sample_below<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_through<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_below<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low < high, "gen_range: empty range");
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                (low as $wide).wrapping_add((rng.next_u64() % span) as $wide) as $t
            }
            fn sample_through<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low <= high, "gen_range: empty range");
                let span = ((high as $wide).wrapping_sub(low as $wide) as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                (low as $wide).wrapping_add((rng.next_u64() % span) as $wide) as $t
            }
        }
    )*};
}
uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
             i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_below<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low < high, "gen_range: empty range");
                let v = low + (high - low) * unit_f64(rng) as $t;
                if v < high { v } else { low }
            }
            fn sample_through<R: RngCore + ?Sized>(low: $t, high: $t, rng: &mut R) -> $t {
                assert!(low <= high, "gen_range: empty range");
                low + (high - low) * unit_f64(rng) as $t
            }
        }
    )*};
}
uniform_float!(f32, f64);

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_below(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_through(low, high, rng)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    /// SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(u64);

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng(seed)
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        type Item;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}
