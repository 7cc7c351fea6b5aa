//! The partitioning kernel variants of the Figure 3 ablation, and the
//! one-shot forms of the kernel the operator runs.

use crate::swc::SwcBuffers;
use crate::writer::ColumnOut;
use crate::{empty_parts, FlushMode, Parts};
use hsa_hash::{digit, Hasher64, FANOUT};

/// Unroll factor of the out-of-order rung: "manually unrolling the main
/// loop into blocks of 16 elements, which are first all hashed and then
/// all put into their partition buffers" (§4.2).
const UNROLL: usize = 16;

/// Naive partitioning: one pass, `ChunkedVec::push` per key.
///
/// With [`hsa_hash::Identity`] this is Figure 3's `key` bar, with
/// [`hsa_hash::Murmur2`] its `hash` bar. Throughput is limited by the TLB
/// misses and read-before-write of scattering into 256 destinations.
pub fn partition_naive<H: Hasher64>(
    keys: impl Iterator<Item = u64>,
    hasher: H,
    level: u32,
) -> Parts {
    let mut parts = empty_parts();
    for k in keys {
        parts[digit(hasher.hash_u64(k), level)].push(k);
    }
    parts
}

/// Software write-combining, element-at-a-time hashing (Figure 3 `swc`),
/// flushing full lines with plain stores.
pub fn partition_swc<H: Hasher64>(keys: impl Iterator<Item = u64>, hasher: H, level: u32) -> Parts {
    partition_swc_with_mode(keys, hasher, level, FlushMode::Cached)
}

/// [`partition_swc`] with an explicit flush mode (ablation hook).
pub fn partition_swc_with_mode<H: Hasher64>(
    keys: impl Iterator<Item = u64>,
    hasher: H,
    level: u32,
    mode: FlushMode,
) -> Parts {
    let mut parts = empty_parts();
    let mut bufs = SwcBuffers::with_mode(mode);
    for k in keys {
        let d = digit(hasher.hash_u64(k), level);
        bufs.push(d, k, &mut parts[d]);
    }
    bufs.drain(|d, vals| parts[d].extend_from_slice(vals));
    parts
}

/// SWC plus 16-way unrolled hash computation (Figure 3 `oo` + `2lvl`),
/// flushing full lines with plain stores.
pub fn partition_unrolled<H: Hasher64>(keys: &[u64], hasher: H, level: u32) -> Parts {
    partition_unrolled_with_mode(keys, hasher, level, FlushMode::Cached)
}

/// [`partition_unrolled`] with an explicit flush mode (ablation hook).
pub fn partition_unrolled_with_mode<H: Hasher64>(
    keys: &[u64],
    hasher: H,
    level: u32,
    mode: FlushMode,
) -> Parts {
    let mut parts = empty_parts();
    let mut bufs = SwcBuffers::with_mode(mode);
    hash_ahead(keys, hasher, level, |d, k| bufs.push(d, k, &mut parts[d]));
    bufs.drain(|d, vals| parts[d].extend_from_slice(vals));
    parts
}

/// The `oo` loop, shared by the production kernel and the write-combining
/// rungs: hash a block of [`UNROLL`] keys (independent multiply chains the
/// CPU overlaps with the stores of the previous block), then
/// `route(digit, key)` each of them, in input order.
#[inline(always)]
pub(crate) fn hash_ahead<H: Hasher64>(
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
    let mut out = ColumnOut::new();
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
    let mut out = ColumnOut::new();
    for chunk in key_chunks {
        out.partition(chunk, hasher, level, |d| mapping_out.push(d));
    }
    std::mem::take(out.close())
}

/// Over-allocation ablation (Figure 3): each partition is one flat `Vec`
/// pre-reserved to hold the entire input, mimicking Wassenberg's
/// virtual-memory trick. Fastest output shape, impossible memory policy —
/// kept to measure what the two-level structure costs.
pub fn partition_overalloc<H: Hasher64>(keys: &[u64], hasher: H, level: u32) -> Vec<Vec<u64>> {
    let mut parts: Vec<Vec<u64>> = (0..FANOUT).map(|_| Vec::with_capacity(keys.len())).collect();
    let mut bufs = SwcBuffers::with_mode(FlushMode::Cached);
    hash_ahead(keys, hasher, level, |d, k| bufs.push_flat(d, k, &mut parts[d]));
    bufs.drain(|d, vals| parts[d].extend_from_slice(vals));
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{pseudo_random_keys, reference_parts};
    use hsa_hash::{Identity, Murmur2};

    fn flat(parts: &Parts) -> Vec<Vec<u64>> {
        parts.iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn all_variants_agree_with_reference() {
        let keys = pseudo_random_keys(10_000, 7);
        let h = Murmur2::default();
        let expect = reference_parts(&keys, h, 0);
        assert_eq!(flat(&partition_naive(keys.iter().copied(), h, 0)), expect, "naive");
        assert_eq!(flat(&partition_swc(keys.iter().copied(), h, 0)), expect, "swc");
        assert_eq!(flat(&partition_unrolled(&keys, h, 0)), expect, "unrolled");
        assert_eq!(flat(&partition_keys([keys.as_slice()].into_iter(), h, 0)), expect, "keys");
        assert_eq!(partition_overalloc(&keys, h, 0), expect, "overalloc");
    }

    #[test]
    fn identity_hasher_partitions_by_key_bits() {
        // Keys with known top bytes land in the matching partition.
        let keys: Vec<u64> = (0..FANOUT as u64).map(|d| d << 56 | 42).collect();
        let parts = partition_naive(keys.iter().copied(), Identity, 0);
        for (d, p) in parts.iter().enumerate() {
            assert_eq!(p.to_vec(), vec![(d as u64) << 56 | 42]);
        }
    }

    #[test]
    fn partitioning_is_a_permutation() {
        let keys = pseudo_random_keys(50_000, 3);
        let parts = partition_unrolled(&keys, Murmur2::default(), 0);
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
        let parts = partition_unrolled(&keys, h, 0);
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
            assert_eq!(flat(&partition_unrolled(&keys, h, level)), expect, "level {level}");
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
