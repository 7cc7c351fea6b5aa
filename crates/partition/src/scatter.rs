//! Applying the digit mapping to aggregate columns (§3.3, Figure 3 `map`).
//!
//! Once the grouping column of a run has been partitioned and its digit
//! mapping recorded, every other column is scattered by replaying the
//! digits into a fresh set of partitions. Because rows are routed in the
//! same order, each value lands at exactly the offset of its key — no
//! per-row offsets need to be stored, the mapping is one byte per row
//! ("their memory access pattern is equivalent", §4.2).

use crate::writer::ColumnOut;
use crate::Parts;
use hsa_columnar::DepotAccount;

/// Scatter one value column into 256 partitions according to the digit
/// mapping produced by
/// [`partition_keys_mapped`](crate::partition_keys_mapped) — the one-shot
/// form of the replay a [`PartitionWriter`](crate::PartitionWriter) runs
/// per travelling column.
///
/// `value_chunks` must yield exactly `digits.len()` values in total.
pub fn scatter_by_digits<'a>(
    digits: &[u8],
    value_chunks: impl Iterator<Item = &'a [u64]>,
) -> Parts {
    let mut out = ColumnOut::new(&DepotAccount::default());
    let mut offset = 0usize;
    for chunk in value_chunks {
        out.scatter(&digits[offset..offset + chunk.len()], chunk);
        offset += chunk.len();
    }
    assert_eq!(offset, digits.len(), "value column shorter than mapping");
    std::mem::take(out.close())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_keys_mapped;
    use crate::testutil::pseudo_random_keys;
    use hsa_hash::Murmur2;

    #[test]
    fn values_land_next_to_their_keys() {
        let keys = pseudo_random_keys(20_000, 5);
        // Value column derived from the key so alignment is checkable.
        let vals: Vec<u64> = keys.iter().map(|k| k ^ 0xdead_beef).collect();
        let h = Murmur2::default();
        let mut mapping = Vec::new();
        let key_parts = partition_keys_mapped([keys.as_slice()].into_iter(), h, 0, &mut mapping);
        let val_parts = scatter_by_digits(&mapping, [vals.as_slice()].into_iter());
        for (kp, vp) in key_parts.iter().zip(&val_parts) {
            assert_eq!(kp.len(), vp.len());
            for (k, v) in kp.iter().zip(vp.iter()) {
                assert_eq!(v, k ^ 0xdead_beef);
            }
        }
    }

    #[test]
    fn scatter_in_chunks_matches_whole() {
        let keys = pseudo_random_keys(10_000, 9);
        let vals: Vec<u64> = (0..keys.len() as u64).collect();
        let h = Murmur2::default();
        let mut mapping = Vec::new();
        let _ = partition_keys_mapped([keys.as_slice()].into_iter(), h, 0, &mut mapping);
        let whole = scatter_by_digits(&mapping, [vals.as_slice()].into_iter());
        let chunked = scatter_by_digits(&mapping, vals.chunks(333));
        for (a, b) in whole.iter().zip(&chunked) {
            assert_eq!(a.to_vec(), b.to_vec());
        }
    }

    #[test]
    #[should_panic(expected = "value column shorter than mapping")]
    fn length_mismatch_panics() {
        let digits = vec![0u8; 10];
        let vals = vec![1u64; 5];
        let _ = scatter_by_digits(&digits, [vals.as_slice()].into_iter());
    }

    #[test]
    fn empty_mapping_empty_output() {
        let parts = scatter_by_digits(&[], std::iter::empty());
        assert!(parts.iter().all(|p| p.is_empty()));
    }
}
