//! Radix partitioning (§4.2, Figure 3).
//!
//! `PARTITIONING` is the framework's fast path when early aggregation does
//! not pay off. The operator runs it through a [`PartitionWriter`]: keys
//! are hashed 16 at a time and every value is stored straight into the
//! open chunk of its partition's two-level [`hsa_columnar::ChunkedVec`]
//! (list of arrays), whose outputs persist across calls so a partition
//! grows for as long as its owner keeps appending (§3.2). The one-shot
//! functions run the same loops over fresh outputs, which is what the
//! ablation and the benchmark's replay measure.
//!
//! The crate also keeps the ablation ladder the paper measures in
//! Figure 3:
//!
//! | variant | Figure 3 label | function |
//! |---|---|---|
//! | naive, partition by key bits | `key` | [`partition_naive`] + [`hsa_hash::Identity`] |
//! | naive, partition by hash | `hash` | [`partition_naive`] + [`hsa_hash::Murmur2`] |
//! | software write-combining | `swc` | [`partition_swc`] |
//! | + 16-way unrolled hashing | `oo` | [`partition_overalloc`] |
//! | + two-level output | `2lvl` | [`partition_unrolled`] |
//! | direct appends + `oo` + `2lvl` (production) | — | [`partition_keys`] / [`partition_keys_mapped`] |
//! | scatter an aggregate column (production) | `map` | [`scatter_by_digits`] |
//! | reference bandwidth | `memcpy` | [`memcpy_nt`] |
//!
//! **Software write-combining** (Intel; also Balkesen et al., Wassenberg &
//! Sanders) buffers one 64-byte cache line per partition and flushes it
//! with non-temporal stores that bypass the cache, avoiding the
//! read-before-write of normal stores and confining the TLB working set to
//! the 256-line buffer array; the paper's kernel reaches ≈ 97 % of `memcpy`
//! with it. On the virtualized hosts this reproduction is measured on it
//! is the slowest hashed rung (`fig03`: staging every value in a line costs
//! more than the misses it saves, and `movnti` loses outright), so the
//! `swc*`, `unrolled*` and `overalloc` functions stay as the paper's rungs
//! only and the production kernel stores each value once.

mod kernels;
mod scatter;
mod swc;
mod writer;

pub use kernels::{
    partition_keys, partition_keys_mapped, partition_naive, partition_overalloc, partition_swc,
    partition_swc_with_mode, partition_unrolled, partition_unrolled_with_mode,
};
pub use scatter::scatter_by_digits;
pub use swc::{memcpy_nt, FlushMode, LINE_U64S};
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
