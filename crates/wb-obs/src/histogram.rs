//! Fixed-bucket histograms: log2 octaves with 4 linear sub-buckets.
//!
//! Bucket boundaries are powers of two subdivided four ways, so any
//! recorded value lands in a bucket whose floor is within 25% of it.
//! 252 buckets cover the full `u64` range, every slot is an
//! `AtomicU64`, and recording is two `fetch_add`s plus a `fetch_min`/
//! `fetch_max` — no locks, no allocation, safe to hit from every pump
//! thread at once.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of linear subdivision per octave (4 sub-buckets).
const SUB_BITS: u32 = 2;
/// Total bucket count: values `0..4` map 1:1, then 4 buckets per
/// octave through the top octave — `u64::MAX` lands in the last
/// bucket, so every index is reachable and every floor fits in `u64`.
pub const NUM_BUCKETS: usize = 252;

fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    ((((msb - SUB_BITS + 1) as u64) << SUB_BITS) + sub) as usize
}

/// The smallest value that maps to bucket `i` — reported as the
/// percentile estimate (a deterministic lower bound).
fn bucket_floor(i: usize) -> u64 {
    if i < (1 << SUB_BITS) {
        return i as u64;
    }
    let octave = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
    let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
    (1u64 << octave) + (sub << (octave - SUB_BITS))
}

/// A concurrent fixed-bucket histogram.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot with percentile estimates. All
    /// fields are zero when empty — never NaN, never a division by
    /// zero.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSnapshot::default();
        }
        let sum = self.sum.load(Ordering::Relaxed);
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let pct = |q: f64| -> u64 {
            // 1-based rank of the q-quantile observation.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_floor(i);
                }
            }
            bucket_floor(NUM_BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum,
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            mean: sum as f64 / count as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Median estimate (bucket floor, within 25% of the true value).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 3);
        assert_eq!(s.p50, 1);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn bucket_floor_inverts_index() {
        // Every bucket floor must map back into its own bucket, and
        // any value's floor must be within 25% of the value.
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "bucket {i}");
        }
        for v in [5u64, 17, 100, 1_000, 123_456, 1 << 40, u64::MAX] {
            let f = bucket_floor(bucket_index(v));
            assert!(f <= v, "{v}");
            assert!(v - f <= v / 4, "{v} floor {f}");
        }
    }

    #[test]
    fn percentiles_of_uniform_range() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Bucket floors undershoot by at most 25%.
        assert!(s.p50 >= 375 && s.p50 <= 500, "p50 {}", s.p50);
        assert!(s.p95 >= 712 && s.p95 <= 950, "p95 {}", s.p95);
        assert!(s.p99 >= 742 && s.p99 <= 990, "p99 {}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn skewed_tail_is_visible() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let s = h.snapshot();
        assert_eq!(s.p50, 10);
        assert_eq!(s.max, 100_000);
        assert!(s.p99 >= 75_000, "tail shows up in p99: {}", s.p99);
    }
}
