//! Stable, dependency-free design hashing.
//!
//! FNV-1a (64-bit): deterministic across processes and platforms —
//! unlike `std::collections::hash_map::DefaultHasher`, which is
//! randomly seeded per process. The stage-graph pipeline uses these
//! hashes as content-addressed cache keys, so stability is the whole
//! point: the same design must fingerprint identically in a server
//! that has been restarted.
//!
//! Two step sizes share one state. [`Fnv1a::write`] is byte-wise
//! FNV-1a, bit-compatible with the published vectors. The word methods
//! ([`Fnv1a::write_u64`], [`Fnv1a::write_i64`], [`Fnv1a::write_f64`],
//! [`Fnv1a::write_words`]) fold eight bytes per multiply — a grid's
//! key plan is a few hundred thousand words, and one multiply per byte
//! made hashing a sixth of a warm what-if.

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh hash at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv1a(Self::SEED)
    }

    /// Folds raw bytes into the hash, one FNV-1a step per byte.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a whole `u64` in one multiply, then brings the high half
    /// of the state back down. The fold is what makes the word step a
    /// content key: a multiply only carries differences *upward*, so
    /// with plain xor-multiply a flipped bit 63 in one word stays
    /// alone in bit 63 of the state and the same flip in a later word
    /// cancels it.
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
        self.0 ^= self.0 >> 32;
    }

    /// Folds an `i64` (one word step on its two's-complement bits).
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` via its exact bit pattern, so the fingerprint
    /// distinguishes every representable value (including `-0.0` from
    /// `0.0`).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a byte string eight bytes a step: its length, then its
    /// little-endian words, the last one zero-padded. The length makes
    /// the encoding self-delimiting (`"ab"` then `"c"` never equals
    /// `"a"` then `"bc"`) and tells a padded tail from real zeros.
    pub fn write_words(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(
                chunk.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn empty_is_offset_basis() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn f64_sign_matters() {
        let mut a = Fnv1a::new();
        a.write_f64(0.0);
        let mut b = Fnv1a::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    fn digest(words: &[u64]) -> u64 {
        let mut h = Fnv1a::new();
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }

    #[test]
    fn every_bit_of_every_word_reaches_the_digest() {
        let message = [0u64, u64::MAX, 0x0123_4567_89ab_cdef, 1.5f64.to_bits(), 7];
        let base = digest(&message);
        for word in 0..message.len() {
            for bit in 0..64 {
                let mut flipped = message;
                flipped[word] ^= 1 << bit;
                assert_ne!(digest(&flipped), base, "word {word} bit {bit}");
            }
        }
    }

    #[test]
    fn the_same_flip_in_two_words_never_cancels() {
        // The failure of plain xor-multiply: bit 63 flipped in word i
        // and again in word j restores the digest.
        let message = [3u64, 0x8000_0000_0000_0001, 42, 0.25f64.to_bits()];
        let base = digest(&message);
        for bit in 0..64 {
            for i in 0..message.len() {
                for j in i + 1..message.len() {
                    let mut flipped = message;
                    flipped[i] ^= 1 << bit;
                    flipped[j] ^= 1 << bit;
                    assert_ne!(digest(&flipped), base, "bit {bit} in words {i} and {j}");
                }
            }
        }
    }

    #[test]
    fn word_order_matters() {
        assert_ne!(digest(&[1, 2, 3]), digest(&[2, 1, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 3, 2]));
    }

    #[test]
    fn write_words_is_self_delimiting() {
        let pair = |a: &[u8], b: &[u8]| {
            let mut h = Fnv1a::new();
            h.write_words(a);
            h.write_words(b);
            h.finish()
        };
        assert_ne!(pair(b"ab", b"c"), pair(b"a", b"bc"));
        assert_ne!(pair(b"a", b""), pair(b"", b"a"));
        // A zero-padded tail is not the same string as real zeros.
        assert_ne!(pair(b"abc", b""), pair(b"abc\0", b""));
        // Every byte position of a multi-word name counts.
        let name = b"n1_m4_120000_96000";
        for i in 0..name.len() {
            let mut edited = *name;
            edited[i] ^= 1;
            assert_ne!(pair(&edited, b""), pair(name, b""), "byte {i}");
        }
    }
}
