//! # Hashing Is Sorting — cache-efficient adaptive aggregation
//!
//! A faithful, production-quality reproduction of *"Cache-Efficient
//! Aggregation: Hashing Is Sorting"* (Müller, Sanders, Lacurie, Lehner,
//! Färber — SIGMOD 2015): a relational `GROUP BY` operator that is
//! cache-efficient without prior knowledge of input skew or output
//! cardinality, built as a radix sort over hash values that switches
//! per-thread between an early-aggregating `HASHING` routine and a radix
//! `PARTITIONING` routine that hashes 16 keys ahead and appends each value
//! straight into its partition's open chunk.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`aggregate`] / [`distinct`] and [`AggregateConfig`] / [`Strategy`] —
//!   the operator (`hsa-core`),
//! * [`AggSpec`] — the aggregate functions (COUNT/SUM/MIN/MAX/AVG) with
//!   super-aggregate handling (`hsa-agg`),
//! * [`AggStream`] — the same operator fed in bounded chunks, for input
//!   that arrives in pieces (the `hsa` CLI streams its CSV through it),
//! * [`datagen`] — the paper's synthetic data distributions,
//! * [`baselines`] — the five prior-work algorithms of the Figure 8
//!   comparison,
//! * [`xmem`] — the external-memory cost model and cache simulator behind
//!   Figure 1.
//!
//! ```
//! use hashing_is_sorting::{aggregate, AggregateConfig, AggSpec};
//!
//! // SELECT k, COUNT(*), AVG(v) FROM t GROUP BY k
//! let keys = vec![10u64, 20, 10, 20, 10];
//! let vals = vec![1u64, 2, 3, 4, 5];
//! let (out, stats) = aggregate(
//!     &keys,
//!     &[&vals],
//!     &[AggSpec::count(), AggSpec::avg(0)],
//!     &AggregateConfig::default(),
//! );
//! assert_eq!(out.n_groups(), 2);
//! assert!(stats.total_hash_rows() >= 5);
//! ```

#![forbid(unsafe_code)]

pub use hsa_agg::{AggFn, AggSpec};
pub use hsa_core::{
    aggregate, depot, distinct, try_aggregate, try_aggregate_observed, try_merge_partials,
    AdaptiveParams, AdmissionConfig, AdmissionController, AdmissionDenied, AdmissionOutcome,
    AdmissionRequest, AggError, AggStream, AggregateConfig, CancelReason, CancelToken, DiskBudget,
    DiskReservation, ExecEnv, FaultInjector, FaultPlan, GroupByOutput, MemoryBudget, ObsConfig,
    OpStats, ProfileTree, QueryGrant, Reservation, RunHandle, RunReport, RunStore, SpillConfig,
    SpillFault, SpillFaultKind, SpilledRun, Strategy, REPORT_VERSION,
};

/// Observability building blocks: per-worker metrics, histograms, the
/// task timeline, and the dependency-free JSON value they serialize
/// through.
pub mod obs {
    pub use hsa_obs::*;
}

/// Synthetic data distributions (§6.5).
pub mod datagen {
    pub use hsa_datagen::*;
}

/// Prior-work baseline algorithms (§6.4).
pub mod baselines {
    pub use hsa_baselines::*;
}

/// External-memory cost model and cache simulator (§2).
pub mod xmem {
    pub use hsa_xmem::*;
}

/// Low-level building blocks, exposed for benchmarking and extension.
pub mod kernels {
    pub use hsa_agg::shims::{fold_mapped, select, FoldOp, KernelKind, KernelPref};
    pub use hsa_hash::{digit, Hasher64, Identity, Murmur2, FANOUT};
    pub use hsa_hashtbl::{identity_of, AggTable, GrowTable, Insert, TableConfig};
    pub use hsa_partition::{partition_keys, partition_keys_mapped, scatter_by_digits};
}
