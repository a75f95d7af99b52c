//! The workspace's one seeded generator.
//!
//! SplitMix64 (Steele, Lea & Flood 2014): the state is the seed, one
//! add and three xor-shift-multiplies per draw, the same stream on every
//! platform. Dataset generators, the population and course simulators,
//! peer-review assignment and the chaos kill schedule all draw from it,
//! so a seed names one dataset, one semester and one campaign everywhere.
//! The formulas below are pinned by the golden test: changing one moves
//! every generated dataset and every recorded figure.

use std::ops::{Bound, RangeBounds};

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream named by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.f64() < p
    }

    /// Uniform in `lo..hi` or `lo..=hi`. Integers are `lo + next % span`
    /// (the modulo bias is below 2⁻³² for every span used here); floats
    /// are `lo + (hi - lo) · f64()`.
    pub fn range<T: Uniform>(&mut self, range: impl RangeBounds<T>) -> T {
        let Bound::Included(&lo) = range.start_bound() else {
            panic!("range needs an inclusive lower bound");
        };
        match range.end_bound() {
            Bound::Excluded(&hi) => T::sample(self, lo, hi, false),
            Bound::Included(&hi) => T::sample(self, lo, hi, true),
            Bound::Unbounded => panic!("range needs an upper bound"),
        }
    }

    /// Fisher–Yates shuffle, from the back.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0..=i));
        }
    }
}

/// A type [`SplitMix64::range`] can sample.
pub trait Uniform: Copy {
    /// Uniform in `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample(rng: &mut SplitMix64, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl Uniform for $t {
            fn sample(rng: &mut SplitMix64, lo: $t, hi: $t, inclusive: bool) -> $t {
                assert!(lo < hi || (inclusive && lo == hi), "empty range");
                let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64)
                    .wrapping_add(inclusive as u64);
                if span == 0 {
                    return rng.next_u64() as $t; // the type's whole range
                }
                (lo as $wide).wrapping_add((rng.next_u64() % span) as $wide) as $t
            }
        }
    )*};
}
uniform_int!(u32 => u64, u64 => u64, usize => u64, i32 => i64, i64 => i64);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn sample(rng: &mut SplitMix64, lo: $t, hi: $t, inclusive: bool) -> $t {
                assert!(lo < hi || (inclusive && lo == hi), "empty range");
                let v = lo + (hi - lo) * rng.f64() as $t;
                // Rounding can land on an excluded `hi`.
                if inclusive || v < hi { v } else { lo }
            }
        }
    )*};
}
uniform_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorded from the stream every ledger run and generated dataset
    /// has used; a change here changes all of them.
    #[test]
    fn stream_is_pinned() {
        let mut r = SplitMix64::new(42);
        let first: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394,
                0x09bc_585a_2448_23f2,
                0xde44_31fa_3c80_db06,
                0x37e9_671c_4537_6d5d,
                0xccf6_35ee_9e9e_2fa4,
            ]
        );
        assert_eq!(r.range(0..10usize), 5);
        assert_eq!(r.range(-3..=3i32), 2);
        assert_eq!(r.f64(), 0.20490183179877552);
        assert_eq!(r.f64().to_bits(), 0x3fdf_8d22_8391_4594);
        let mut v: Vec<u32> = (0..10).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [7, 2, 0, 3, 9, 6, 5, 4, 1, 8]);
        assert_eq!(r.range(-1.0f32..1.0).to_bits(), 0xbf5a_98b2);
        assert_eq!(r.range(0.0f64..1.0).to_bits(), 0x3fe3_31b1_f620_1942);
        assert!(!r.bool(0.3));
        assert_eq!(
            crate::gen::random_vector(4, 7),
            [-0.22034049, -0.9664234, 0.8015214, 0.16586053]
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!((3..7).contains(&r.range(3..7u32)));
            assert!((-2..=2).contains(&r.range(-2..=2i64)));
            assert!((0.0..1.0).contains(&r.range(0.0..1.0f32)));
            assert!((0.0..1.0).contains(&r.f64()));
        }
        assert_eq!(r.range(5..=5usize), 5);
        let _whole: u64 = r.range(0..=u64::MAX);
    }
}
