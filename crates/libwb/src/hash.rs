//! The workspace's one content hasher.
//!
//! Cache keys must be derived from the *content* of a submission, not
//! its identity, so that two students submitting byte-identical code
//! land on the same entry; the sandbox's tables carry a digest of their
//! content for the same keys. Keys are derived on every job, hit or
//! miss, so the hasher runs at memory speed: it absorbs its input
//! sixteen bytes per mixing step.
//!
//! * **Block step.** A 16-byte little-endian block `m` moves the 128-bit
//!   state `s` to `x ^ (x >> 64)` with `x = (s ^ m) · K` (`K` odd).
//!   Each of the three operations is invertible, so for any block the
//!   step is a bijection of the state: two states never merge, and two
//!   streams that differ in one block differ in state after it.
//! * **Carry.** Writes of any length go through a carry of fewer than
//!   16 pending bytes, so the digest depends on the byte stream alone,
//!   never on how it was split into writes. Fixed-width fields (framing
//!   lengths, integers, floats) are shifted into the carry as one word,
//!   and slices are packed into whole blocks, with no per-byte or
//!   per-element loop.
//! * **Finish.** The zero-padded carry is absorbed, then the total byte
//!   count (which makes the padding unambiguous), then a
//!   xor-shift/multiply finalizer avalanches the whole word.
//!
//! The digest is 128 bits, so the collision probability is negligible
//! at cluster scale (2⁻⁶⁴ for billions of distinct keys). It is not a
//! cryptographic hash: it guards against accidental collisions, not
//! crafted ones.
//!
//! Every variable-length field is length-prefixed before hashing so
//! that adjacent fields can never alias (`"ab" + "c"` vs `"a" + "bc"`).

/// The state before any input (the first 32 hex digits of π's
/// fraction: any fixed value works, zero would too).
const SEED: u128 = 0x243f6a8885a308d313198a2e03707344;
/// The block multiplier: PCG's 128-bit LCG multiplier, odd so the
/// multiply is invertible mod 2¹²⁸.
const K: u128 = 0x2360ed051fc65da44385df649fccf645;

/// A 128-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl std::fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContentHash({:032x})", self.0)
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental 128-bit content hasher with field framing.
#[derive(Clone)]
pub struct ContentHasher {
    state: u128,
    /// The `pending` bytes not yet absorbed, little-endian in the low
    /// bytes; the rest are zero.
    carry: u128,
    /// Bytes in `carry`, always below 16.
    pending: u32,
    /// Bytes written so far.
    total: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// One block step: a bijection of the state for any block.
#[inline(always)]
fn mix(state: u128, block: u128) -> u128 {
    let x = (state ^ block).wrapping_mul(K);
    x ^ (x >> 64)
}

/// `bytes` (1 to 15 of them) as a little-endian word, from at most two
/// overlapping loads rather than a loop or a copy: a short field costs
/// the same whatever its length.
#[inline(always)]
fn short_word(bytes: &[u8]) -> u128 {
    let n = bytes.len();
    debug_assert!((1..16).contains(&n));
    let le8 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let le4 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    if n >= 8 {
        // The last load ends at byte n; shift its overlap with the
        // first one out.
        let hi = u128::from(le8(n - 8)) >> (8 * (16 - n));
        u128::from(le8(0)) | hi << 64
    } else if n >= 4 {
        let hi = u64::from(le4(n - 4)) >> (8 * (8 - n));
        u128::from(u64::from(le4(0)) | hi << 32)
    } else {
        // Bytes 0, n/2 and n-1 cover every byte of a 1-3 byte field.
        let at = |i: usize| u128::from(bytes[i]) << (8 * i);
        at(0) | at(n / 2) | at(n - 1)
    }
}

impl ContentHasher {
    /// Start a fresh digest.
    pub fn new() -> Self {
        ContentHasher {
            state: SEED,
            carry: 0,
            pending: 0,
            total: 0,
        }
    }

    /// Append the low `n` bytes of `word` (`n` ≤ 16, higher bytes
    /// zero) to the stream, absorbing a block when the carry fills.
    #[inline(always)]
    fn push(&mut self, word: u128, n: u32) {
        debug_assert!(n <= 16 && (n == 16 || word >> (8 * n) == 0));
        self.total += u64::from(n);
        let used = self.pending;
        let merged = self.carry | word << (8 * used);
        if used + n < 16 {
            self.carry = merged;
            self.pending = used + n;
        } else {
            self.state = mix(self.state, merged);
            // The bytes of `word` that did not fit, if any.
            self.carry = if used == 0 {
                0
            } else {
                word >> (128 - 8 * used)
            };
            self.pending = used + n - 16;
        }
    }

    /// Fold raw bytes into the digest (no framing — use the typed
    /// writers for anything variable-length).
    pub fn write_raw(&mut self, bytes: &[u8]) -> &mut Self {
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            let block: [u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
            self.push(u128::from_le_bytes(block), 16);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            self.push(short_word(tail), tail.len() as u32);
        }
        self
    }

    /// Length-prefixed byte field.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes)
    }

    /// Length-prefixed UTF-8 field.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes())
    }

    /// Fixed-width integer field.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.push(u128::from(v), 8);
        self
    }

    /// Fixed-width signed integer field.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// `usize` field (hashed as 64-bit for portability).
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// `f32` field, hashed by bit pattern (`-0.0` and `0.0` therefore
    /// key differently — bitwise identity is exactly what "same
    /// dataset" means for a grader).
    pub fn write_f32(&mut self, v: f32) -> &mut Self {
        self.push(u128::from(v.to_bits()), 4);
        self
    }

    /// A digest as a 16-byte field.
    pub fn write_hash(&mut self, h: ContentHash) -> &mut Self {
        self.push(h.0, 16);
        self
    }

    /// Length-prefixed `f32` slice, by bit pattern like
    /// [`write_f32`](Self::write_f32).
    pub fn write_f32s(&mut self, vs: &[f32]) -> &mut Self {
        self.write_words32(vs, f32::to_bits)
    }

    /// Length-prefixed `i32` slice, four bytes per element.
    pub fn write_i32s(&mut self, vs: &[i32]) -> &mut Self {
        self.write_words32(vs, |x| x as u32)
    }

    /// Length-prefixed `usize` slice (each hashed as 64-bit).
    pub fn write_usizes(&mut self, vs: &[usize]) -> &mut Self {
        self.write_u64(vs.len() as u64);
        let mut pairs = vs.chunks_exact(2);
        for p in &mut pairs {
            self.push(p[0] as u64 as u128 | (p[1] as u64 as u128) << 64, 16);
        }
        for &v in pairs.remainder() {
            self.write_usize(v);
        }
        self
    }

    /// Length-prefixed slice of 4-byte words, packed four to a block.
    fn write_words32<T: Copy>(&mut self, vs: &[T], bits: impl Fn(T) -> u32) -> &mut Self {
        self.write_u64(vs.len() as u64);
        let mut quads = vs.chunks_exact(4);
        for q in &mut quads {
            let w = |i: usize| u128::from(bits(q[i])) << (32 * i);
            self.push(w(0) | w(1) | w(2) | w(3), 16);
        }
        for &v in quads.remainder() {
            self.push(u128::from(bits(v)), 4);
        }
        self
    }

    /// Boolean field.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.push(u128::from(v), 1);
        self
    }

    /// Finish the digest (the hasher can keep writing afterwards).
    ///
    /// The block step leaves a change in the last block only partly
    /// diffused, so after the zero-padded carry and the byte count the
    /// state is run through a splitmix-style xor-shift/multiply
    /// finalizer to avalanche the whole 128-bit word.
    pub fn finish(&self) -> ContentHash {
        let mut x = self.state;
        if self.pending > 0 {
            x = mix(x, self.carry);
        }
        x = mix(x, u128::from(self.total));
        x ^= x >> 67;
        x = x.wrapping_mul(0xbf58476d1ce4e5b994d049bb133111eb);
        x ^= x >> 61;
        x = x.wrapping_mul(0x94d049bb133111ebbf58476d1ce4e5b9);
        x ^= x >> 64;
        ContentHash(x)
    }
}

/// One-shot digest of a byte string.
pub fn hash_bytes(bytes: &[u8]) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_bytes(b"vecadd"), hash_bytes(b"vecadd"));
        assert_ne!(hash_bytes(b"vecadd"), hash_bytes(b"vecsub"));
    }

    #[test]
    fn empty_input_differs_from_nothing() {
        let h1 = ContentHasher::new().finish();
        let h2 = hash_bytes(b"");
        assert_ne!(h1, h2, "length prefix distinguishes empty field");
    }

    #[test]
    fn field_framing_prevents_aliasing() {
        let a = {
            let mut h = ContentHasher::new();
            h.write_str("ab").write_str("c");
            h.finish()
        };
        let b = {
            let mut h = ContentHasher::new();
            h.write_str("a").write_str("bc");
            h.finish()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn single_bit_avalanche() {
        let a = hash_bytes(&[0b0000_0000]);
        let b = hash_bytes(&[0b0000_0001]);
        let differing = (a.0 ^ b.0).count_ones();
        assert!(differing > 20, "only {differing} bits differ");
    }

    #[test]
    fn float_bit_pattern_matters() {
        let a = {
            let mut h = ContentHasher::new();
            h.write_f32(0.0);
            h.finish()
        };
        let b = {
            let mut h = ContentHasher::new();
            h.write_f32(-0.0);
            h.finish()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn typed_writers_hash_their_little_endian_bytes() {
        // Every typed writer is shorthand for its bytes in the stream,
        // at every carry offset a preceding field can leave.
        for skew in 0..16 {
            let prefix = vec![0xa5u8; skew];
            let (fs, is, us) = (
                [1.5f32, -0.0, 3.25, 7.0, f32::NAN],
                [-1i32, 2, 3],
                [9usize, 8, 7],
            );
            let mut typed = ContentHasher::new();
            typed.write_raw(&prefix);
            typed
                .write_u64(0x0102_0304_0506_0708)
                .write_f32(2.5)
                .write_bool(true)
                .write_hash(ContentHash(u128::MAX / 3))
                .write_f32s(&fs)
                .write_i32s(&is)
                .write_usizes(&us);
            let mut bytes = prefix.clone();
            bytes.extend(0x0102_0304_0506_0708u64.to_le_bytes());
            bytes.extend(2.5f32.to_bits().to_le_bytes());
            bytes.push(1);
            bytes.extend((u128::MAX / 3).to_le_bytes());
            bytes.extend((fs.len() as u64).to_le_bytes());
            fs.iter()
                .for_each(|f| bytes.extend(f.to_bits().to_le_bytes()));
            bytes.extend((is.len() as u64).to_le_bytes());
            is.iter().for_each(|i| bytes.extend(i.to_le_bytes()));
            bytes.extend((us.len() as u64).to_le_bytes());
            us.iter()
                .for_each(|&u| bytes.extend((u as u64).to_le_bytes()));
            let mut raw = ContentHasher::new();
            raw.write_raw(&bytes);
            assert_eq!(typed.finish(), raw.finish(), "skew {skew}");
        }
    }

    #[test]
    fn short_words_match_a_zero_padded_copy() {
        let bytes: Vec<u8> = (1..=15).collect();
        for n in 1..16 {
            let mut padded = [0u8; 16];
            padded[..n].copy_from_slice(&bytes[..n]);
            assert_eq!(
                short_word(&bytes[..n]),
                u128::from_le_bytes(padded),
                "{n} bytes"
            );
        }
    }

    #[test]
    fn display_is_hex() {
        let s = hash_bytes(b"x").to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
