//! Radix partitioning tuned to modern hardware (§4.2, Figure 3).
//!
//! `PARTITIONING` is the framework's fast path when early aggregation does
//! not pay off. This crate implements the full ablation ladder the paper
//! measures in Figure 3:
//!
//! | variant | Figure 3 label | function |
//! |---|---|---|
//! | naive, partition by key bits | `key` | [`partition_naive`] + [`hsa_hash::Identity`] |
//! | naive, partition by hash | `hash` | [`partition_naive`] + [`hsa_hash::Murmur2`] |
//! | software write-combining | `swc` | [`partition_swc`] |
//! | + 16-way unrolled hashing | `oo` | [`partition_unrolled`] |
//! | + two-level output (production) | `2lvl` | [`partition_keys`] / [`partition_keys_mapped`] |
//! | scatter an aggregate column | `map` | [`scatter_by_digits`] |
//! | reference bandwidth | `memcpy` | [`memcpy_nt`] |
//!
//! **Software write-combining** (Intel; also Balkesen et al., Wassenberg &
//! Sanders) buffers one 64-byte cache line per partition and flushes it
//! with non-temporal stores that bypass the cache, avoiding the
//! read-before-write of normal stores and confining the TLB working set to
//! the 256-line buffer array instead of 256 output pages.
//!
//! The production variants write into the two-level
//! [`hsa_columnar::ChunkedVec`] (list of arrays), which the paper measures
//! at ~2% below over-allocated flat output — the price of not needing
//! virtual-memory tricks.
//!
//! The functions above are one-shot: fresh outputs per call, which is what
//! the ablation measures. The operator runs the same `2lvl` + `map` loops
//! through a [`PartitionWriter`], whose outputs persist across calls so a
//! partition grows for as long as its owner keeps appending (§3.2).

mod kernels;
mod scatter;
mod swc;
mod writer;

pub use kernels::{
    partition_keys, partition_keys_mapped, partition_naive, partition_overalloc, partition_swc,
    partition_swc_with_mode, partition_unrolled, partition_unrolled_with_mode,
};
pub use scatter::scatter_by_digits;
pub use swc::{memcpy_nt, FlushMode, PartitionMetrics, LINE_U64S};
pub use writer::PartitionWriter;

use hsa_columnar::ChunkedVec;
use hsa_hash::FANOUT;

/// The 256 output partitions of one partitioning pass.
pub type Parts = Vec<ChunkedVec<u64>>;

/// Fresh empty partitions.
pub fn empty_parts() -> Parts {
    (0..FANOUT).map(|_| ChunkedVec::new()).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use hsa_hash::{digit, Hasher64};

    /// Reference partitioning: stable, obvious, slow.
    pub fn reference_parts<H: Hasher64>(keys: &[u64], hasher: H, level: u32) -> Vec<Vec<u64>> {
        let mut parts = vec![Vec::new(); hsa_hash::FANOUT];
        for &k in keys {
            parts[digit(hasher.hash_u64(k), level)].push(k);
        }
        parts
    }

    pub fn pseudo_random_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state
            })
            .collect()
    }
}
