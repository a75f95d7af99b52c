//! The compiler's table hasher: the multiply-rotate word hash rustc
//! uses for its own tables ("Fx"), which costs a few cycles per word
//! where std's default SipHash-1-3 costs a few dozen per key.
//!
//! The compiler hashes names and small keys it built itself, never a
//! value an attacker picks freely, but a source could still be crafted
//! so that its names collide. Each process therefore starts the hash
//! from its own random seed, as std does, so colliding names cannot be
//! precomputed; the sandbox's source-size cap bounds the rest.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuild>;

/// A `HashSet` hashed with [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, FxBuild>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The word hash: each word is mixed in with one rotate, xor and
/// multiply.
#[derive(Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(26) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the low bits, which pick the bucket, the
        // weakest: fold the high half down.
        self.hash ^ (self.hash >> 32)
    }
}

/// Builds [`FxHasher`]s from the process's seed.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxBuild;

impl BuildHasher for FxBuild {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0u8));
        FxHasher { hash: seed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_near_keys_apart() {
        let b = FxBuild;
        assert_eq!(b.hash_one("threadIdx"), b.hash_one("threadIdx"));
        let names = ["a", "b", "ab", "ba", "a\0", "tile", "tileA", "tileB"];
        let hashes: HashSet<u64> = names.iter().map(|n| b.hash_one(n)).collect();
        assert_eq!(hashes.len(), names.len());
        // A tail shorter than a word is told apart from its zero padding.
        let bytes = |bytes: &[u8]| {
            let mut h = b.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(bytes(&[1]), bytes(&[1, 0]));
    }
}
