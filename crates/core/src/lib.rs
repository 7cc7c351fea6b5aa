//! The adaptive cache-efficient aggregation operator — *hashing is sorting*.
//!
//! This crate is the paper's primary contribution: a single relational
//! `GROUP BY` operator built like an MSD radix sort over hash values whose
//! per-run building block is chosen **at runtime**, per thread, between
//!
//! * `HASHING` (Algorithm 1, line 5) — insert rows into a cache-sized
//!   block-probing table ([`hsa_hashtbl::AggTable`]); a full table splits
//!   into 256 digit ranges, each an (early-aggregated) run, and
//! * `PARTITIONING` (Algorithm 1, line 1) — move rows to 256 runs by hash
//!   digit, each value appended straight into its run's open chunk
//!   ([`hsa_partition`]).
//!
//! Both emit runs keyed by the same hash digit, so the recursion of
//! Algorithm 2 can mix them freely: buckets recurse until one fully
//! aggregated run remains. The [`Strategy`] selects the routine:
//!
//! * [`Strategy::HashingOnly`] — always hash (Figure 4a),
//! * [`Strategy::PartitionAlways`] — fixed partitioning passes, then one
//!   hashing pass with a growable table (Figure 4b/c),
//! * [`Strategy::Adaptive`] — the paper's operator (§5): hash first; when a
//!   table seals, compute the reduction factor `α = n_in / n_out`; if
//!   `α < α₀` the input has too little locality for early aggregation, so
//!   switch to the ~4× faster partitioning for `c · cache` rows, then probe
//!   again with hashing.
//!
//! # Quick start
//!
//! ```
//! use hsa_core::{aggregate, AggregateConfig};
//! use hsa_agg::AggSpec;
//!
//! let keys = vec![1u64, 2, 1, 3, 2, 1];
//! let amounts = vec![10u64, 20, 30, 40, 50, 60];
//! // SELECT key, COUNT(*), SUM(amount) FROM t GROUP BY key
//! let (out, _stats) = aggregate(
//!     &keys,
//!     &[&amounts],
//!     &[AggSpec::count(), AggSpec::sum(0)],
//!     &AggregateConfig::default(),
//! );
//! let rows = out.sorted_rows();
//! assert_eq!(rows[0], (1, vec![3, 100])); // key 1: 3 rows, sum 100
//! assert_eq!(rows[1], (2, vec![2, 70]));
//! assert_eq!(rows[2], (3, vec![1, 40]));
//! ```

#![forbid(unsafe_code)]

mod adaptive;
mod driver;
mod exec;
mod hashing;
mod obs;
mod output;
mod partitioning;
mod report;
mod sink;
mod stats;
mod stream;
mod view;

pub use adaptive::{AdaptiveParams, Strategy};
pub use driver::{aggregate, distinct, try_aggregate, try_aggregate_observed, try_merge_partials};
pub use exec::ExecEnv;

pub use hsa_columnar::{depot, RunHandle, RunStore, SpillConfig, SpilledRun};
pub use hsa_fault::{
    AdmissionConfig, AdmissionController, AdmissionDenied, AdmissionOutcome, AdmissionRequest,
    AggError, CancelReason, CancelToken, DiskBudget, DiskReservation, FaultInjector, FaultPlan,
    MemoryBudget, QueryGrant, Reservation, SpillFault, SpillFaultKind,
};
pub use hsa_obs::ProfileTree;
pub use output::GroupByOutput;
pub use report::{ObsConfig, RunReport, REPORT_VERSION};
pub use stats::OpStats;
pub use stream::AggStream;

use hsa_hashtbl::TableConfig;

/// Configuration of one operator invocation.
#[derive(Clone, Debug)]
pub struct AggregateConfig {
    /// Hash-table budget per thread in bytes. The paper fixes this to the
    /// thread's share of L3; anything from L2 up works, the crossover
    /// points of the figures simply move with it.
    pub cache_bytes: usize,
    /// Worker threads (including the calling thread).
    pub threads: usize,
    /// Routine-selection strategy.
    pub strategy: Strategy,
    /// Fill rate at which a hash table is considered full (paper: 25%).
    pub fill_percent: usize,
    /// Rows per level-0 morsel — the work-stealing granule of the main
    /// loop (§3.2) and the interval at which cancellation is polled. It
    /// does not cut runs: what a worker partitions stays in its writer
    /// across morsels.
    pub morsel_rows: usize,
}

impl Default for AggregateConfig {
    fn default() -> Self {
        Self {
            cache_bytes: 2 << 20,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            strategy: Strategy::Adaptive(AdaptiveParams::default()),
            fill_percent: TableConfig::PAPER_FILL_PERCENT,
            morsel_rows: 1 << 16,
        }
    }
}

impl AggregateConfig {
    /// Single-threaded variant (used by the scaling benchmarks).
    pub fn single_threaded(mut self) -> Self {
        self.threads = 1;
        self
    }

    pub(crate) fn table_config(&self, n_state_cols: usize) -> TableConfig {
        let mut tc = TableConfig::for_cache_bytes(self.cache_bytes, n_state_cols);
        tc.fill_percent = self.fill_percent;
        tc
    }
}
