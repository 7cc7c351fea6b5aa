//! Execution statistics: what the paper's pass-breakdown and adaptation
//! plots (Figures 4, 5, 9) are made of.

use hsa_hash::MAX_LEVEL;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-level, lock-free accumulation; snapshotted into [`OpStats`] at the
/// end of the operator.
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    hash_rows: [AtomicU64; MAX_LEVEL as usize + 1],
    part_rows: [AtomicU64; MAX_LEVEL as usize + 1],
    level_nanos: [AtomicU64; MAX_LEVEL as usize + 1],
    seals: AtomicU64,
    switches_to_partitioning: AtomicU64,
    switches_to_hashing: AtomicU64,
    fallback_merges: AtomicU64,
    budget_denials: AtomicU64,
    budget_downgrades: AtomicU64,
    cancellations: AtomicU64,
    contained_panics: AtomicU64,
    kernel_batched_rows: AtomicU64,
    kernel_scalar_rows: AtomicU64,
    spilled_runs: [AtomicU64; MAX_LEVEL as usize + 1],
    spilled_bytes: AtomicU64,
    restored_runs: AtomicU64,
    restored_bytes: AtomicU64,
}

impl AtomicStats {
    pub(crate) fn add_hash_rows(&self, level: u32, rows: u64) {
        self.hash_rows[level as usize].fetch_add(rows, Ordering::Relaxed);
    }

    pub(crate) fn add_part_rows(&self, level: u32, rows: u64) {
        self.part_rows[level as usize].fetch_add(rows, Ordering::Relaxed);
    }

    pub(crate) fn add_level_nanos(&self, level: u32, nanos: u64) {
        self.level_nanos[level as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    pub(crate) fn count_seal(&self) {
        self.seals.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_switch_to_partitioning(&self) {
        self.switches_to_partitioning.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_switch_to_hashing(&self) {
        self.switches_to_hashing.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_fallback_merge(&self) {
        self.fallback_merges.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_budget_denial(&self) {
        self.budget_denials.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_budget_downgrade(&self) {
        self.budget_downgrades.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_cancellation(&self) {
        self.cancellations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_contained_panic(&self) {
        self.contained_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_kernel_rows(&self, batched: bool, rows: u64) {
        if batched {
            self.kernel_batched_rows.fetch_add(rows, Ordering::Relaxed);
        } else {
            self.kernel_scalar_rows.fetch_add(rows, Ordering::Relaxed);
        }
    }

    pub(crate) fn count_spilled_run(&self, level: u32, bytes: u64) {
        self.spilled_runs[(level as usize).min(MAX_LEVEL as usize)].fetch_add(1, Ordering::Relaxed);
        self.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn count_restored_run(&self, bytes: u64) {
        self.restored_runs.fetch_add(1, Ordering::Relaxed);
        self.restored_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> OpStats {
        let take = |a: &[AtomicU64]| a.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        OpStats {
            hash_rows_per_level: take(&self.hash_rows),
            part_rows_per_level: take(&self.part_rows),
            task_nanos_per_level: take(&self.level_nanos),
            seals: self.seals.load(Ordering::Relaxed),
            switches_to_partitioning: self.switches_to_partitioning.load(Ordering::Relaxed),
            switches_to_hashing: self.switches_to_hashing.load(Ordering::Relaxed),
            fallback_merges: self.fallback_merges.load(Ordering::Relaxed),
            budget_denials: self.budget_denials.load(Ordering::Relaxed),
            budget_downgrades: self.budget_downgrades.load(Ordering::Relaxed),
            cancellations: self.cancellations.load(Ordering::Relaxed),
            contained_panics: self.contained_panics.load(Ordering::Relaxed),
            kernel_batched_rows: self.kernel_batched_rows.load(Ordering::Relaxed),
            kernel_scalar_rows: self.kernel_scalar_rows.load(Ordering::Relaxed),
            spilled_runs_per_level: take(&self.spilled_runs),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
            restored_runs: self.restored_runs.load(Ordering::Relaxed),
            restored_bytes: self.restored_bytes.load(Ordering::Relaxed),
            // Owned by the budget / run store, not these cells: the driver
            // copies their marks in after snapshotting.
            budget_high_water_bytes: 0,
            spill_retries: 0,
            restore_retries: 0,
            spill_io_abandons: 0,
            spill_reclaimed_files: 0,
            spill_reclaimed_bytes: 0,
            disk_budget_denials: 0,
            disk_high_water_bytes: 0,
            spill_encoded_bytes: 0,
            overlapped_io_nanos: 0,
            spill_io_wait_nanos: 0,
        }
    }
}

/// Statistics of one operator invocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Rows consumed by the `HASHING` routine, per recursion level.
    pub hash_rows_per_level: Vec<u64>,
    /// Rows consumed by the `PARTITIONING` routine, per recursion level.
    pub part_rows_per_level: Vec<u64>,
    /// **CPU** time attributed to each level: per-task elapsed nanoseconds
    /// summed over all tasks of that level, across all workers. Because
    /// tasks of different levels run concurrently, these are *not* wall
    /// times and may sum to far more than the run's wall clock — divide by
    /// the thread count for an approximate wall share.
    pub task_nanos_per_level: Vec<u64>,
    /// Hash tables sealed because they were full.
    pub seals: u64,
    /// Adaptive switches hashing → partitioning.
    pub switches_to_partitioning: u64,
    /// Adaptive switches partitioning → hashing (budget exhausted).
    pub switches_to_hashing: u64,
    /// Buckets merged by the growable fallback table (hash digits
    /// exhausted, or the final pass of `PartitionAlways`).
    pub fallback_merges: u64,
    /// Memory reservations denied by the budget (or fault injection).
    pub budget_denials: u64,
    /// Degradations taken in response to denials: hash tables shrunk
    /// below the configured size or morsels forced to partitioning.
    pub budget_downgrades: u64,
    /// Tasks that observed a cancellation request and stopped early.
    pub cancellations: u64,
    /// Worker panics contained by the task scope (the operator returned
    /// `AggError::WorkerPanic` instead of unwinding the caller).
    pub contained_panics: u64,
    /// Rows whose `HASHING` hot loops ran through the batched
    /// (prefetch-pipelined) kernels.
    pub kernel_batched_rows: u64,
    /// Rows whose `HASHING` hot loops ran through the scalar reference
    /// kernels.
    pub kernel_scalar_rows: u64,
    /// Runs flushed to the spill store, per recursion level (a denied
    /// reservation downgraded to out-of-core storage instead of failing).
    pub spilled_runs_per_level: Vec<u64>,
    /// Bytes written to spill files.
    pub spilled_bytes: u64,
    /// Spilled runs read back for consumption.
    pub restored_runs: u64,
    /// Bytes read back from spill files.
    pub restored_bytes: u64,
    /// Peak concurrently reserved bytes the memory budget saw during the
    /// invocation (0 when the budget is unlimited).
    pub budget_high_water_bytes: u64,
    /// Spill writes re-attempted after a transient I/O error.
    pub spill_retries: u64,
    /// Spill restores re-attempted after a transient I/O error.
    pub restore_retries: u64,
    /// Spill operations abandoned: a permanent I/O error, detected
    /// corruption, or retries exhausted.
    pub spill_io_abandons: u64,
    /// Orphaned spill files (from dead processes) reclaimed when the
    /// spill directory was opened.
    pub spill_reclaimed_files: u64,
    /// Bytes those reclaimed files occupied.
    pub spill_reclaimed_bytes: u64,
    /// Spill-space reservations denied by the disk budget.
    pub disk_budget_denials: u64,
    /// Peak concurrently reserved spill bytes the disk budget saw (0 when
    /// unlimited or spilling is off).
    pub disk_high_water_bytes: u64,
    /// Bytes actually written to spill files after per-extent compression
    /// (`spilled_bytes` counts the uncompressed column payloads; the ratio
    /// of the two is the spill compression ratio).
    pub spill_encoded_bytes: u64,
    /// Background spill I/O time that ran concurrently with compute:
    /// nanoseconds the store's I/O workers spent writing and prefetching
    /// minus the time compute threads spent blocked waiting on them.
    pub overlapped_io_nanos: u64,
    /// Nanoseconds compute threads spent blocked on in-flight spill I/O
    /// (the un-overlapped remainder of the async pipeline).
    pub spill_io_wait_nanos: u64,
}

impl OpStats {
    /// Number of passes that actually processed rows.
    pub fn passes_used(&self) -> usize {
        let used = |v: &[u64]| v.iter().rposition(|&r| r > 0).map_or(0, |i| i + 1);
        used(&self.hash_rows_per_level).max(used(&self.part_rows_per_level))
    }

    /// Total rows routed through hashing (all levels).
    pub fn total_hash_rows(&self) -> u64 {
        self.hash_rows_per_level.iter().sum()
    }

    /// Total rows routed through partitioning (all levels).
    pub fn total_part_rows(&self) -> u64 {
        self.part_rows_per_level.iter().sum()
    }

    /// Total runs spilled to disk (all levels).
    pub fn spilled_runs(&self) -> u64 {
        self.spilled_runs_per_level.iter().sum()
    }

    /// Fold another invocation's statistics into this one (for averaging
    /// repeated runs or combining sharded operators).
    pub fn merge(&mut self, other: &OpStats) {
        fn add_levels(dst: &mut Vec<u64>, src: &[u64]) {
            if dst.len() < src.len() {
                dst.resize(src.len(), 0);
            }
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        add_levels(&mut self.hash_rows_per_level, &other.hash_rows_per_level);
        add_levels(&mut self.part_rows_per_level, &other.part_rows_per_level);
        add_levels(&mut self.task_nanos_per_level, &other.task_nanos_per_level);
        add_levels(&mut self.spilled_runs_per_level, &other.spilled_runs_per_level);
        self.seals += other.seals;
        self.switches_to_partitioning += other.switches_to_partitioning;
        self.switches_to_hashing += other.switches_to_hashing;
        self.fallback_merges += other.fallback_merges;
        self.budget_denials += other.budget_denials;
        self.budget_downgrades += other.budget_downgrades;
        self.cancellations += other.cancellations;
        self.contained_panics += other.contained_panics;
        self.kernel_batched_rows += other.kernel_batched_rows;
        self.kernel_scalar_rows += other.kernel_scalar_rows;
        self.spilled_bytes += other.spilled_bytes;
        self.restored_runs += other.restored_runs;
        self.restored_bytes += other.restored_bytes;
        self.spill_retries += other.spill_retries;
        self.restore_retries += other.restore_retries;
        self.spill_io_abandons += other.spill_io_abandons;
        self.spill_reclaimed_files += other.spill_reclaimed_files;
        self.spill_reclaimed_bytes += other.spill_reclaimed_bytes;
        self.disk_budget_denials += other.disk_budget_denials;
        self.spill_encoded_bytes += other.spill_encoded_bytes;
        self.overlapped_io_nanos += other.overlapped_io_nanos;
        self.spill_io_wait_nanos += other.spill_io_wait_nanos;
        // Peaks don't add: merged invocations report the highest mark.
        self.budget_high_water_bytes =
            self.budget_high_water_bytes.max(other.budget_high_water_bytes);
        self.disk_high_water_bytes = self.disk_high_water_bytes.max(other.disk_high_water_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let a = AtomicStats::default();
        a.add_hash_rows(0, 100);
        a.add_hash_rows(1, 50);
        a.add_part_rows(0, 30);
        a.add_level_nanos(0, 999);
        a.count_seal();
        a.count_switch_to_partitioning();
        a.count_fallback_merge();
        a.count_budget_denial();
        a.count_budget_downgrade();
        a.count_cancellation();
        a.count_contained_panic();
        a.add_kernel_rows(true, 80);
        a.add_kernel_rows(false, 20);
        a.count_spilled_run(2, 4096);
        a.count_restored_run(4096);
        let s = a.snapshot();
        assert_eq!(s.hash_rows_per_level[0], 100);
        assert_eq!(s.hash_rows_per_level[1], 50);
        assert_eq!(s.part_rows_per_level[0], 30);
        assert_eq!(s.task_nanos_per_level[0], 999);
        assert_eq!(s.seals, 1);
        assert_eq!(s.switches_to_partitioning, 1);
        assert_eq!(s.fallback_merges, 1);
        assert_eq!(s.budget_denials, 1);
        assert_eq!(s.budget_downgrades, 1);
        assert_eq!(s.cancellations, 1);
        assert_eq!(s.contained_panics, 1);
        assert_eq!(s.kernel_batched_rows, 80);
        assert_eq!(s.kernel_scalar_rows, 20);
        assert_eq!(s.spilled_runs_per_level[2], 1);
        assert_eq!(s.spilled_runs(), 1);
        assert_eq!(s.spilled_bytes, 4096);
        assert_eq!(s.restored_runs, 1);
        assert_eq!(s.restored_bytes, 4096);
        assert_eq!(s.passes_used(), 2);
        assert_eq!(s.total_hash_rows(), 150);
        assert_eq!(s.total_part_rows(), 30);
    }

    #[test]
    fn passes_used_empty() {
        assert_eq!(OpStats::default().passes_used(), 0);
    }

    #[test]
    fn merge_adds_fieldwise_and_resizes() {
        let a = AtomicStats::default();
        a.add_hash_rows(0, 10);
        a.count_seal();
        let mut m = a.snapshot();
        let b = AtomicStats::default();
        b.add_hash_rows(1, 5);
        b.add_part_rows(0, 7);
        b.count_switch_to_partitioning();
        b.count_spilled_run(1, 128);
        m.budget_high_water_bytes = 700;
        let mut bs = b.snapshot();
        bs.budget_high_water_bytes = 300;
        m.merge(&bs);
        assert_eq!(m.budget_high_water_bytes, 700, "peaks max, not add");
        assert_eq!(m.hash_rows_per_level[0], 10);
        assert_eq!(m.hash_rows_per_level[1], 5);
        assert_eq!(m.part_rows_per_level[0], 7);
        assert_eq!(m.seals, 1);
        assert_eq!(m.switches_to_partitioning, 1);
        assert_eq!(m.spilled_runs_per_level[1], 1);
        assert_eq!(m.spilled_bytes, 128);
        let mut empty = OpStats::default();
        empty.merge(&m);
        assert_eq!(empty, m);
    }
}
