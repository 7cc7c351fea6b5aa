//! Hash functions for cache-efficient aggregation.
//!
//! The paper (§4.1) evaluated "many different hash functions that are popular
//! among practitioners" and found that for small elements **MurmurHash2** is
//! the fastest while still distributing well enough that, at a 25% fill rate,
//! collisions in the cache-sized linear-probing table are rare. This crate
//! provides that hash and the one alternative a paper figure needs:
//!
//! * [`Murmur2`] — MurmurHash2-64A, the paper's choice,
//! * [`Identity`] — no-op hash, used to partition by *key* bits instead of
//!   hash bits (the `key` variants in Figure 3).
//!
//! Both implement [`Hasher64`], which hashes a single `u64` key (the
//! paper's rows are 64-bit integer columns) and arbitrary byte strings.
//!
//! # Radix digits
//!
//! The aggregation framework is an MSD radix sort over hash values: pass
//! `level` buckets rows by [`digit`]`(hash, level)`, the `level`-th most
//! significant 8-bit digit. [`FANOUT`] (256) and [`DIGIT_BITS`] (8) are fixed
//! here so that every crate agrees on the bucket geometry (§4.2: "this scheme
//! works best with 256 partitions").

#![forbid(unsafe_code)]

mod murmur2;

pub use murmur2::Murmur2;

/// Number of bits consumed per radix pass.
pub const DIGIT_BITS: u32 = 8;

/// Partitioning fan-out per pass (`2^DIGIT_BITS`); §4.2 fixes this to 256.
pub const FANOUT: usize = 1 << DIGIT_BITS;

/// Maximum meaningful recursion depth: a 64-bit hash has 8 radix digits.
pub const MAX_LEVEL: u32 = u64::BITS / DIGIT_BITS;

/// A 64-bit hash function over `u64` keys and byte strings.
///
/// Implementations must be pure: the same input always yields the same
/// output for the same hasher value. `Copy + Default` keeps them free to
/// pass around the hot loops by value.
pub trait Hasher64: Copy + Clone + Default + Send + Sync + 'static {
    /// Hash a single 64-bit key. This is the hot path of the aggregation
    /// operator, where every input row is a 64-bit integer.
    fn hash_u64(&self, key: u64) -> u64;

    /// Hash an arbitrary byte string (used for string grouping keys in the
    /// examples; the kernels only ever see `u64`).
    fn hash_bytes(&self, bytes: &[u8]) -> u64;
}

/// Identity "hash": returns the key itself.
///
/// Partitioning with `Identity` partitions by the key's own most significant
/// bits, which is the `key` variant of the Figure 3 microbenchmark and is
/// only safe when the key domain is known to be dense and unskewed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Identity;

impl Hasher64 for Identity {
    #[inline(always)]
    fn hash_u64(&self, key: u64) -> u64 {
        key
    }

    #[inline]
    fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        // Fold the bytes into a u64 without mixing; good enough for the
        // degenerate use cases Identity is meant for.
        let mut out = 0u64;
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            out ^= u64::from_le_bytes(buf);
        }
        out
    }
}

/// Extract the radix digit for recursion level `level` (0 = first pass).
///
/// Digits are taken from the most significant bits downwards so that the
/// recursive partitioning is an MSD radix sort on hash values: after pass
/// `l`, all rows in a bucket share their top `(l+1) * DIGIT_BITS` hash bits.
#[inline(always)]
pub fn digit(hash: u64, level: u32) -> usize {
    debug_assert!(level < MAX_LEVEL, "radix level {level} out of range");
    ((hash >> (u64::BITS - DIGIT_BITS - level * DIGIT_BITS)) & (FANOUT as u64 - 1)) as usize
}

/// Number of hash bits available *below* the digits consumed by passes
/// `0..=level`. The hash table derives in-block slot indexes from these so
/// that slot placement stays uniform after any number of radix passes.
#[inline(always)]
pub fn remaining_bits(level: u32) -> u32 {
    u64::BITS - DIGIT_BITS * (level + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_is_msd_first() {
        let h = 0xAB_CD_EF_01_23_45_67_89u64;
        assert_eq!(digit(h, 0), 0xAB);
        assert_eq!(digit(h, 1), 0xCD);
        assert_eq!(digit(h, 2), 0xEF);
        assert_eq!(digit(h, 3), 0x01);
        assert_eq!(digit(h, 7), 0x89);
    }

    #[test]
    fn digit_covers_fanout() {
        for d in 0..FANOUT {
            let h = (d as u64) << (u64::BITS - DIGIT_BITS);
            assert_eq!(digit(h, 0), d);
        }
    }

    #[test]
    fn remaining_bits_shrinks_by_digit() {
        assert_eq!(remaining_bits(0), 56);
        assert_eq!(remaining_bits(1), 48);
        assert_eq!(remaining_bits(6), 8);
    }

    #[test]
    fn identity_roundtrip() {
        assert_eq!(Identity.hash_u64(42), 42);
        assert_eq!(Identity.hash_u64(u64::MAX), u64::MAX);
    }

    #[test]
    fn identity_bytes_folds() {
        let h = Identity.hash_bytes(&7u64.to_le_bytes());
        assert_eq!(h, 7);
    }
}
