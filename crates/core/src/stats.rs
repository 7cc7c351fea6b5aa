//! Execution statistics: what the paper's pass-breakdown and adaptation
//! plots (Figures 4, 5, 9) are made of.
//!
//! [`OpStats`] is a view: the operator counts every event once, into the
//! per-worker cells of its [`hsa_obs::Recorder`], and [`OpStats::lower`]
//! reads the merged cells out when the query finishes.

use hsa_obs::{Counter, LevelCounter, WorkerSnapshot};

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
    /// nanoseconds the store's I/O workers spent writing and reading ahead
    /// minus the time compute threads spent blocked waiting on them.
    pub overlapped_io_nanos: u64,
    /// Nanoseconds compute threads spent blocked on in-flight spill I/O
    /// (the un-overlapped remainder of the async pipeline).
    pub spill_io_wait_nanos: u64,
}

impl OpStats {
    /// Lower the merged counter cells of a finished query into its
    /// statistics. The two peaks are not sums over workers, so they come
    /// from the budgets that own them.
    pub(crate) fn lower(
        cells: &WorkerSnapshot,
        budget_high_water_bytes: u64,
        disk_high_water_bytes: u64,
    ) -> Self {
        let n = |c| cells.counter(c);
        let per_level = |c| cells.level_counter(c).to_vec();
        Self {
            hash_rows_per_level: per_level(LevelCounter::HashRows),
            part_rows_per_level: per_level(LevelCounter::PartRows),
            task_nanos_per_level: per_level(LevelCounter::TaskNanos),
            seals: n(Counter::TablesSealed),
            switches_to_partitioning: n(Counter::SwitchesToPartitioning),
            switches_to_hashing: n(Counter::SwitchesToHashing),
            fallback_merges: n(Counter::FallbackMerges),
            budget_denials: n(Counter::BudgetDenials),
            budget_downgrades: n(Counter::BudgetDowngrades),
            cancellations: n(Counter::Cancellations),
            contained_panics: n(Counter::ContainedPanics),
            spilled_runs_per_level: per_level(LevelCounter::SpilledRuns),
            spilled_bytes: n(Counter::SpilledBytes),
            restored_runs: n(Counter::RestoredRuns),
            restored_bytes: n(Counter::RestoredBytes),
            budget_high_water_bytes,
            spill_retries: n(Counter::SpillRetries),
            restore_retries: n(Counter::RestoreRetries),
            spill_io_abandons: n(Counter::SpillAbandons),
            spill_reclaimed_files: n(Counter::SpillReclaimedFiles),
            spill_reclaimed_bytes: n(Counter::SpillReclaimedBytes),
            disk_budget_denials: n(Counter::DiskBudgetDenials),
            disk_high_water_bytes,
            spill_encoded_bytes: n(Counter::SpillEncodedBytes),
            overlapped_io_nanos: n(Counter::OverlappedIoNanos),
            spill_io_wait_nanos: n(Counter::SpillIoWaitNanos),
        }
    }

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_obs::Recorder;

    #[test]
    fn lowering_reads_every_cell_into_its_field() {
        // Two shards, so the lowering is seen to read the merged view.
        let r = Recorder::counters(2);
        r.add_level(0, LevelCounter::HashRows, 0, 60);
        r.add_level(1, LevelCounter::HashRows, 0, 40);
        r.add_level(0, LevelCounter::HashRows, 1, 50);
        r.add_level(1, LevelCounter::PartRows, 0, 30);
        r.add_level(0, LevelCounter::TaskNanos, 0, 999);
        r.add_level(1, LevelCounter::SpilledRuns, 2, 1);
        // Every flat counter gets a distinct value: 1, 2, 3, … in
        // declaration order, split over the two shards.
        for (i, &c) in Counter::ALL.iter().enumerate() {
            r.add(i % 2, c, i as u64 + 1);
        }
        let v = |c: Counter| c as u64 + 1;
        let s = OpStats::lower(&r.snapshot().merged(), 700, 300);
        assert_eq!(s.hash_rows_per_level[..2], [100, 50]);
        assert_eq!(s.part_rows_per_level[0], 30);
        assert_eq!(s.task_nanos_per_level[0], 999);
        assert_eq!(s.spilled_runs_per_level[2], 1);
        assert_eq!(s.spilled_runs(), 1);
        assert_eq!(s.passes_used(), 2);
        assert_eq!(s.total_hash_rows(), 150);
        assert_eq!(s.total_part_rows(), 30);
        assert_eq!(s.seals, v(Counter::TablesSealed));
        assert_eq!(s.switches_to_partitioning, v(Counter::SwitchesToPartitioning));
        assert_eq!(s.switches_to_hashing, v(Counter::SwitchesToHashing));
        assert_eq!(s.fallback_merges, v(Counter::FallbackMerges));
        assert_eq!(s.budget_denials, v(Counter::BudgetDenials));
        assert_eq!(s.budget_downgrades, v(Counter::BudgetDowngrades));
        assert_eq!(s.cancellations, v(Counter::Cancellations));
        assert_eq!(s.contained_panics, v(Counter::ContainedPanics));
        assert_eq!(s.spilled_bytes, v(Counter::SpilledBytes));
        assert_eq!(s.restored_runs, v(Counter::RestoredRuns));
        assert_eq!(s.restored_bytes, v(Counter::RestoredBytes));
        assert_eq!(s.spill_retries, v(Counter::SpillRetries));
        assert_eq!(s.restore_retries, v(Counter::RestoreRetries));
        assert_eq!(s.spill_io_abandons, v(Counter::SpillAbandons));
        assert_eq!(s.spill_reclaimed_files, v(Counter::SpillReclaimedFiles));
        assert_eq!(s.spill_reclaimed_bytes, v(Counter::SpillReclaimedBytes));
        assert_eq!(s.disk_budget_denials, v(Counter::DiskBudgetDenials));
        assert_eq!(s.spill_encoded_bytes, v(Counter::SpillEncodedBytes));
        assert_eq!(s.overlapped_io_nanos, v(Counter::OverlappedIoNanos));
        assert_eq!(s.spill_io_wait_nanos, v(Counter::SpillIoWaitNanos));
        assert_eq!((s.budget_high_water_bytes, s.disk_high_water_bytes), (700, 300));
    }

    #[test]
    fn passes_used_empty() {
        assert_eq!(OpStats::default().passes_used(), 0);
    }
}
