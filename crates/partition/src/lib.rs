//! Radix partitioning (§4.2, Figure 3).
//!
//! `PARTITIONING` is the framework's fast path when early aggregation does
//! not pay off. The operator runs it through a [`PartitionWriter`]: keys
//! are hashed 16 at a time ([`hash_ahead`], Figure 3's `oo`) and every
//! value is stored straight into the open chunk of its partition's
//! two-level [`hsa_columnar::ChunkedVec`] (list of arrays, `2lvl`), whose
//! outputs persist across calls so a partition grows for as long as its
//! owner keeps appending (§3.2). The one-shot functions
//! ([`partition_keys`], [`partition_keys_mapped`], [`scatter_by_digits`] —
//! Figure 3's `map`) run the same loops over fresh outputs, which is what
//! `fig03` and the benchmark's replay measure.
//!
//! The paper's kernel buffers values in software write-combining lines
//! flushed with non-temporal stores. On the virtualized hosts this
//! reproduction is measured on, that is the slowest hashed rung of Figure
//! 3, so the operator stores each value once; the paper's rungs live in
//! `hsa-bench`'s `ladder` module beside `fig03`, and this crate ships only
//! what the operator runs.

#![forbid(unsafe_code)]

mod kernels;
mod scatter;
mod writer;

pub use kernels::{hash_ahead, partition_keys, partition_keys_mapped};
pub use scatter::scatter_by_digits;
pub use writer::PartitionWriter;

use hsa_columnar::ChunkedVec;
use hsa_hash::FANOUT;

/// The 256 output partitions of one partitioning pass.
pub type Parts = Vec<ChunkedVec>;

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
