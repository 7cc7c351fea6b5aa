//! The one-shot forms of the kernel the operator runs, and its hash-ahead
//! loop.

use crate::writer::ColumnOut;
use crate::Parts;
use hsa_columnar::DepotAccount;
use hsa_hash::{digit, Hasher64};

/// Unroll factor of the hash-ahead loop: "manually unrolling the main loop
/// into blocks of 16 elements, which are first all hashed and then all put
/// into their partition buffers" (§4.2).
const UNROLL: usize = 16;

/// Figure 3's `oo` loop: hash a block of 16 keys (independent multiply
/// chains the CPU overlaps with the stores of the previous block), then
/// `route(digit, key)` each of them by radix digit `level`, in input order.
/// The operator's key pass runs it; `fig03`'s write-combining rungs run it
/// too, so they measure this loop and not a copy.
#[inline(always)]
pub fn hash_ahead<H: Hasher64>(
    keys: &[u64],
    hasher: H,
    level: u32,
    mut route: impl FnMut(usize, u64),
) {
    let mut hashes = [0u64; UNROLL];
    let mut blocks = keys.chunks_exact(UNROLL);
    for block in &mut blocks {
        for (h, &k) in hashes.iter_mut().zip(block) {
            *h = hasher.hash_u64(k);
        }
        for (&h, &k) in hashes.iter().zip(block) {
            route(digit(h, level), k);
        }
    }
    for &k in blocks.remainder() {
        route(digit(hasher.hash_u64(k), level), k);
    }
}

/// Partition a key column (given as chunk slices) into its 256 partitions
/// with the production kernel — the one-shot form of the key pass the
/// operator runs through a [`PartitionWriter`](crate::PartitionWriter):
/// 16-way hash-ahead, values stored straight into each partition's open
/// chunk.
pub fn partition_keys<'a, H: Hasher64>(
    key_chunks: impl Iterator<Item = &'a [u64]>,
    hasher: H,
    level: u32,
) -> Parts {
    let mut out = ColumnOut::new(&DepotAccount::default());
    for chunk in key_chunks {
        out.partition(chunk, hasher, level, |_| {});
    }
    std::mem::take(out.close())
}

/// Like [`partition_keys`] but also emits the digit mapping vector needed
/// to scatter the aggregate columns afterwards (§3.3): `mapping_out`
/// receives one radix digit per input row, in input order.
pub fn partition_keys_mapped<'a, H: Hasher64>(
    key_chunks: impl Iterator<Item = &'a [u64]>,
    hasher: H,
    level: u32,
    mapping_out: &mut Vec<u8>,
) -> Parts {
    let mut out = ColumnOut::new(&DepotAccount::default());
    for chunk in key_chunks {
        out.partition(chunk, hasher, level, |d| mapping_out.push(d));
    }
    std::mem::take(out.close())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{pseudo_random_keys, reference_parts};
    use hsa_hash::{Identity, Murmur2, FANOUT};

    fn flat(parts: &Parts) -> Vec<Vec<u64>> {
        parts.iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn identity_hasher_partitions_by_key_bits() {
        // Keys with known top bytes land in the matching partition.
        let keys: Vec<u64> = (0..FANOUT as u64).map(|d| d << 56 | 42).collect();
        let parts = partition_keys([keys.as_slice()].into_iter(), Identity, 0);
        for (d, p) in parts.iter().enumerate() {
            assert_eq!(p.to_vec(), vec![(d as u64) << 56 | 42]);
        }
    }

    #[test]
    fn partitioning_is_a_permutation() {
        let keys = pseudo_random_keys(50_000, 3);
        let parts = partition_keys([keys.as_slice()].into_iter(), Murmur2::default(), 0);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, keys.len());
        let mut collected: Vec<u64> = parts.iter().flat_map(|p| p.iter()).collect();
        collected.sort_unstable();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(collected, sorted);
    }

    #[test]
    fn partitioning_is_stable_within_partition() {
        // Rows of one partition keep their input order (needed so the
        // digit mapping aligns with the aggregate-column scatter).
        let keys: Vec<u64> = (0..10_000u64).collect();
        let h = Murmur2::default();
        let parts = partition_keys([keys.as_slice()].into_iter(), h, 0);
        let expect = reference_parts(&keys, h, 0); // reference is stable
        assert_eq!(flat(&parts), expect);
    }

    #[test]
    fn mapped_variant_emits_correct_digits() {
        let keys = pseudo_random_keys(5_000, 11);
        let h = Murmur2::default();
        let mut mapping = Vec::new();
        let parts = partition_keys_mapped([keys.as_slice()].into_iter(), h, 0, &mut mapping);
        assert_eq!(mapping.len(), keys.len());
        for (&k, &d) in keys.iter().zip(&mapping) {
            assert_eq!(digit(h.hash_u64(k), 0) as u8, d);
        }
        // Replaying the mapping reproduces the partition sizes.
        let mut sizes = [0usize; FANOUT];
        for &d in &mapping {
            sizes[d as usize] += 1;
        }
        for (d, p) in parts.iter().enumerate() {
            assert_eq!(p.len(), sizes[d], "partition {d}");
        }
    }

    #[test]
    fn level_selects_digit() {
        let keys = pseudo_random_keys(5_000, 13);
        let h = Murmur2::default();
        for level in [0u32, 1, 3, 7] {
            let expect = reference_parts(&keys, h, level);
            assert_eq!(
                flat(&partition_keys([keys.as_slice()].into_iter(), h, level)),
                expect,
                "level {level}"
            );
        }
    }

    #[test]
    fn multi_chunk_input_equals_single_chunk() {
        let keys = pseudo_random_keys(10_000, 17);
        let h = Murmur2::default();
        let whole = flat(&partition_keys([keys.as_slice()].into_iter(), h, 0));
        let split = flat(&partition_keys(keys.chunks(777), h, 0));
        assert_eq!(whole, split);
    }

    #[test]
    fn empty_input_gives_empty_parts() {
        let parts = partition_keys(std::iter::empty(), Murmur2::default(), 0);
        assert_eq!(parts.len(), FANOUT);
        assert!(parts.iter().all(|p| p.is_empty()));
    }
}
