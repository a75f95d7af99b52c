//! A fixed piece of work timed between units, recorded beside the results
//! so that a disturbed run can be told from a slow program.
//!
//! The hosts this runs on are shared: the same binary on the same inputs
//! has been seen to run a third slower for minutes at a time, with CPU
//! time inflated as much as wall time (so not by descheduling). The
//! yardstick — plain integer, branch and L2-resident memory work compiled
//! into this crate — goes to the detail line as `host_speed`. No metric
//! is adjusted by it: it shares the caches with the workload, so it is
//! not independent of the product.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// 256 KiB of `u64`: resident in L2, larger than L1.
const TABLE_WORDS: usize = 32 * 1024;
const STEPS: u64 = 1_500_000;

/// What one call takes between the units of a running workload on the
/// undisturbed 2-core reference box (a 2.1 GHz Xeon; alone in a process
/// it takes 2.7 ms — the workload's data competes for the cache).
pub const REFERENCE: Duration = Duration::from_micros(3_200);

pub struct Yardstick {
    table: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        }
    }
}

impl Yardstick {
    /// Do the fixed work; returns how long it took.
    pub fn measure(&mut self) -> Duration {
        let started = Instant::now();
        let table = &mut self.table[..];
        let (mut a, mut b, mut c, mut d) = (black_box(1u64), 2u64, 3u64, 4u64);
        for _ in 0..STEPS {
            a = a
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            b ^= a >> 33;
            // Data-dependent branch and scattered loads and stores: the
            // shape of an interpreter's inner loop.
            if b & 1 == 0 {
                c = c.wrapping_add(b);
            } else {
                c ^= a.rotate_left(17);
            }
            let slot = (b as usize) % TABLE_WORDS;
            d = d.wrapping_add(table[(a >> 20) as usize % TABLE_WORDS]);
            table[slot] = c ^ d;
        }
        black_box((a, b, c, d));
        started.elapsed()
    }
}
