//! The per-worker sharded metrics recorder.
//!
//! One shard per worker, each a cache-line-padded block of plain `u64`
//! counters and [`Histogram`]s. Recording is a handful of unsynchronized
//! adds into the worker's own shard — the design the paper's own
//! per-thread hash tables use, applied to metrics. Shards are merged into
//! one [`MetricsSnapshot`] after the operator has quiesced.
//!
//! A disabled recorder carries no shards; every recording call is a single
//! null check, so instrumented code needs no `if enabled` of its own.

use crate::hist::Histogram;
use crate::json::JsonValue;
use crate::profile::{Phase, PhaseCell, PROFILE_LEVELS};
use crate::CachePadded;
use std::cell::UnsafeCell;
use std::sync::Arc;

/// Per-switch α samples kept verbatim per worker; later switches are still
/// counted in the aggregate sum/count once the list is full.
const MAX_ALPHAS_PER_WORKER: usize = 1024;

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of variants.
            pub const COUNT: usize = $name::ALL.len();

            /// Stable snake_case label used in reports.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotonic per-worker counters.
    Counter {
        /// Level-0 morsels this worker claimed.
        MorselsClaimed => "morsels_claimed",
        /// Hash tables sealed (full tables + final flushes).
        TablesSealed => "tables_sealed",
        /// Adaptive switches hashing → partitioning.
        SwitchesToPartitioning => "switches_to_partitioning",
        /// Adaptive switches partitioning → hashing (budget exhausted).
        SwitchesToHashing => "switches_to_hashing",
        /// Buckets merged by the growable fallback table.
        FallbackMerges => "fallback_merges",
        /// Rows consumed by the HASHING routine.
        HashRows => "hash_rows",
        /// Rows consumed by the PARTITIONING routine.
        PartRows => "part_rows",
        /// Hash-table key inserts (new + hit).
        TableInserts => "table_inserts",
        /// Total linear-probe steps beyond the home slot.
        ProbeSteps => "probe_steps",
        /// Software-write-combining cache lines flushed.
        SwcFlushes => "swc_flushes",
        /// Bytes moved through the SWC flush path (non-temporal when
        /// streaming stores are enabled).
        SwcFlushBytes => "swc_flush_bytes",
        /// Memory reservations denied by the budget (including denials
        /// absorbed by degradation).
        BudgetDenials => "budget_denials",
        /// Degradations taken under memory pressure: tables allocated
        /// smaller than configured, or hashing replaced by partitioning.
        BudgetDowngrades => "budget_downgrades",
        /// Tasks that observed cancellation (or a prior failure) and bailed
        /// out without processing their work.
        Cancellations => "cancellations",
        /// Worker panics contained by the scope and surfaced as errors.
        ContainedPanics => "contained_panics",
        /// Rows whose HASHING hot loops ran through the batched
        /// (prefetch-pipelined) kernels.
        KernelBatchedRows => "kernel_batched_rows",
        /// Rows whose HASHING hot loops ran through the scalar reference
        /// kernels (forced via `AggregateConfig::kernel`).
        KernelScalarRows => "kernel_scalar_rows",
        /// Runs flushed to the spill directory after a denied reservation
        /// was downgraded to out-of-core storage.
        SpilledRuns => "spilled_runs",
        /// Bytes written to spill files.
        SpilledBytes => "spilled_bytes",
        /// Spilled runs read back into memory for consumption.
        RestoredRuns => "restored_runs",
        /// Bytes read back from spill files.
        RestoredBytes => "restored_bytes",
        /// Spill writes re-attempted after a transient I/O error.
        SpillRetries => "spill_retries",
        /// Spill restores re-attempted after a transient I/O error.
        RestoreRetries => "restore_retries",
        /// Spill operations abandoned (permanent error, corruption, or
        /// retries exhausted).
        SpillAbandons => "spill_abandons",
        /// Orphaned spill files of dead processes reclaimed when the
        /// spill directory was opened.
        SpillReclaimedFiles => "spill_reclaimed_files",
        /// Spill-space reservations denied by the disk budget.
        DiskBudgetDenials => "disk_budget_denials",
        /// Bytes spill files actually occupied on disk after per-extent
        /// compression (compare with `spilled_bytes`).
        SpillEncodedBytes => "spill_encoded_bytes",
        /// Background spill I/O nanoseconds that ran concurrently with
        /// compute (worker time minus compute-thread wait time).
        OverlappedIoNanos => "overlapped_io_nanos",
        /// Nanoseconds compute threads spent blocked on in-flight
        /// background spill I/O.
        SpillIoWaitNanos => "spill_io_wait_nanos",
    }
}

metric_enum! {
    /// Per-worker log₂ histograms.
    Hist {
        /// Probe steps beyond the home slot, per insert (§4.1: at 25% fill
        /// collisions should be "very rare or even non-existing").
        ProbeLen => "probe_len",
        /// Distance from home slot at which a *new* key landed.
        BlockDisplacement => "block_displacement",
        /// Occupied-slot percentage of the table at seal time.
        SealFillPct => "seal_fill_pct",
        /// Rows per level-0 morsel processed by this worker.
        MorselRows => "morsel_rows",
        /// Per-digit skew of one partitioning pass: largest partition's
        /// row count as a percentage of the mean (100 = perfectly even).
        PartitionSkewPct => "partition_skew_pct",
        /// Nanoseconds spent writing one run to the spill store.
        SpillNanos => "spill_nanos",
        /// Nanoseconds spent reading one spilled run back.
        RestoreNanos => "restore_nanos",
    }
}

/// One worker's metric cells. Plain data; merged at snapshot time.
#[derive(Clone, Debug)]
pub(crate) struct WorkerShard {
    counters: [u64; Counter::COUNT],
    hists: [Histogram; Hist::COUNT],
    phases: [[PhaseCell; Phase::COUNT]; PROFILE_LEVELS],
    alphas: Vec<f64>,
    alpha_count: u64,
    alpha_sum: f64,
}

impl Default for WorkerShard {
    fn default() -> Self {
        Self {
            counters: [0; Counter::COUNT],
            hists: std::array::from_fn(|_| Histogram::new()),
            phases: [[PhaseCell::default(); Phase::COUNT]; PROFILE_LEVELS],
            alphas: Vec::new(),
            alpha_count: 0,
            alpha_sum: 0.0,
        }
    }
}

struct Inner {
    shards: Vec<CachePadded<UnsafeCell<WorkerShard>>>,
}

// SAFETY: shard `i` is only written by the thread currently acting as
// worker `i` (the crate-level sharding contract), and `snapshot` reads
// only after those threads have quiesced.
unsafe impl Sync for Inner {}
unsafe impl Send for Inner {}

/// Cheap cloneable handle to the sharded metrics, or a no-op when built
/// with [`Recorder::disabled`].
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder whose every operation is a null check.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recorder with one shard per worker.
    pub fn enabled(workers: usize) -> Self {
        let shards = (0..workers.max(1))
            .map(|_| CachePadded(UnsafeCell::new(WorkerShard::default())))
            .collect();
        Self { inner: Some(Arc::new(Inner { shards })) }
    }

    /// Whether metrics are actually collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of shards (0 when disabled).
    pub fn workers(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.shards.len())
    }

    #[inline]
    #[allow(clippy::mut_from_ref)] // exclusive access per the sharding contract
    fn shard(&self, worker: usize) -> Option<&mut WorkerShard> {
        let inner = self.inner.as_deref()?;
        // SAFETY: per the sharding contract, `worker` is exclusively owned
        // by the calling thread while the operator runs.
        Some(unsafe { &mut *inner.shards[worker].0.get() })
    }

    /// Add `n` to counter `c` of `worker`.
    #[inline]
    pub fn add(&self, worker: usize, c: Counter, n: u64) {
        if let Some(shard) = self.shard(worker) {
            shard.counters[c as usize] += n;
        }
    }

    /// Record `value` into histogram `h` of `worker`.
    #[inline]
    pub fn observe(&self, worker: usize, h: Hist, value: u64) {
        if let Some(shard) = self.shard(worker) {
            shard.hists[h as usize].record(value);
        }
    }

    /// Fold a locally collected histogram into histogram `h` of `worker`
    /// (used to flush per-table collectors at seal time).
    pub fn merge_hist(&self, worker: usize, h: Hist, other: &Histogram) {
        if let Some(shard) = self.shard(worker) {
            shard.hists[h as usize].merge(other);
        }
    }

    /// Fold `delta` into the `(level, phase)` cell of `worker`. Levels
    /// beyond [`PROFILE_LEVELS`] clamp into the last slot.
    #[inline]
    pub fn phase(&self, worker: usize, level: u32, phase: Phase, delta: PhaseCell) {
        if let Some(shard) = self.shard(worker) {
            let level = (level as usize).min(PROFILE_LEVELS - 1);
            shard.phases[level][phase as usize].add(&delta);
        }
    }

    /// Record the reduction factor observed at one adaptive switch.
    #[inline]
    pub fn record_alpha(&self, worker: usize, alpha: f64) {
        if let Some(shard) = self.shard(worker) {
            if shard.alphas.len() < MAX_ALPHAS_PER_WORKER {
                shard.alphas.push(alpha);
            }
            shard.alpha_count += 1;
            shard.alpha_sum += alpha;
        }
    }

    /// Merge all shards into a snapshot. Must only be called after the
    /// recording threads have quiesced. A disabled recorder yields an
    /// empty (all-zero) snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = self.inner.as_deref() else {
            return MetricsSnapshot::default();
        };
        // SAFETY: quiescence is the caller's contract; we only read.
        let workers: Vec<WorkerSnapshot> = inner
            .shards
            .iter()
            .map(|s| WorkerSnapshot { shard: unsafe { &*s.0.get() }.clone() })
            .collect();
        MetricsSnapshot { workers }
    }
}

/// Immutable copy of one worker's shard.
#[derive(Clone, Debug, Default)]
pub struct WorkerSnapshot {
    shard: WorkerShard,
}

impl WorkerSnapshot {
    /// Value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.shard.counters[c as usize]
    }

    /// Histogram `h`.
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.shard.hists[h as usize]
    }

    /// The `(level, phase)` profiling cell. Levels beyond
    /// [`PROFILE_LEVELS`] clamp into the last slot.
    pub fn phase_cell(&self, level: usize, phase: Phase) -> &PhaseCell {
        &self.shard.phases[level.min(PROFILE_LEVELS - 1)][phase as usize]
    }

    /// Recorded per-switch α values (bounded; see [`Self::alpha_count`]).
    pub fn alphas(&self) -> &[f64] {
        &self.shard.alphas
    }

    /// Total switches that recorded an α (may exceed `alphas().len()`).
    pub fn alpha_count(&self) -> u64 {
        self.shard.alpha_count
    }

    /// Sum of all recorded α values.
    pub fn alpha_sum(&self) -> f64 {
        self.shard.alpha_sum
    }

    fn merge_from(&mut self, other: &WorkerSnapshot) {
        for (a, b) in self.shard.counters.iter_mut().zip(&other.shard.counters) {
            *a += b;
        }
        for (a, b) in self.shard.hists.iter_mut().zip(&other.shard.hists) {
            a.merge(b);
        }
        for (arow, brow) in self.shard.phases.iter_mut().zip(&other.shard.phases) {
            for (a, b) in arow.iter_mut().zip(brow) {
                a.add(b);
            }
        }
        let room = MAX_ALPHAS_PER_WORKER.saturating_sub(self.shard.alphas.len());
        self.shard.alphas.extend(other.shard.alphas.iter().take(room).copied());
        self.shard.alpha_count += other.shard.alpha_count;
        self.shard.alpha_sum += other.shard.alpha_sum;
    }

    /// True if every cell is zero.
    pub fn is_zero(&self) -> bool {
        self.shard.counters.iter().all(|&c| c == 0)
            && self.shard.hists.iter().all(Histogram::is_empty)
            && self.shard.phases.iter().flatten().all(PhaseCell::is_empty)
            && self.shard.alpha_count == 0
    }

    /// JSON object with one member per counter, histogram, and the α list.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs: Vec<(String, JsonValue)> = Counter::ALL
            .iter()
            .map(|&c| (c.label().to_string(), JsonValue::U64(self.counter(c))))
            .collect();
        for &h in Hist::ALL {
            pairs.push((h.label().to_string(), self.hist(h).to_json()));
        }
        let phases: Vec<(String, JsonValue)> = self
            .shard
            .phases
            .iter()
            .enumerate()
            .filter(|(_, row)| row.iter().any(|c| !c.is_empty()))
            .map(|(level, row)| {
                let cells: Vec<(String, JsonValue)> = Phase::ALL
                    .iter()
                    .filter(|&&p| !row[p as usize].is_empty())
                    .map(|&p| (p.label().to_string(), row[p as usize].to_json()))
                    .collect();
                (format!("level{level}"), JsonValue::Object(cells))
            })
            .collect();
        pairs.push(("phases".to_string(), JsonValue::Object(phases)));
        pairs.push((
            "alphas".to_string(),
            JsonValue::Array(self.shard.alphas.iter().map(|&a| JsonValue::F64(a)).collect()),
        ));
        pairs.push(("alpha_count".to_string(), JsonValue::U64(self.shard.alpha_count)));
        pairs.push(("alpha_sum".to_string(), JsonValue::F64(self.shard.alpha_sum)));
        JsonValue::Object(pairs)
    }
}

/// All workers' metrics, frozen after a run.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Per-worker snapshots, index = worker index.
    pub workers: Vec<WorkerSnapshot>,
}

impl MetricsSnapshot {
    /// All workers folded into one.
    pub fn merged(&self) -> WorkerSnapshot {
        let mut out = WorkerSnapshot::default();
        for w in &self.workers {
            out.merge_from(w);
        }
        out
    }

    /// True if nothing was recorded anywhere (always true for a disabled
    /// recorder's snapshot).
    pub fn is_zero(&self) -> bool {
        self.workers.iter().all(WorkerSnapshot::is_zero)
    }

    /// JSON: `{"merged": {...}, "workers": [{...}, ...]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("merged", self.merged().to_json()),
            (
                "workers",
                JsonValue::Array(self.workers.iter().map(WorkerSnapshot::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_all_zero() {
        let r = Recorder::disabled();
        r.add(0, Counter::HashRows, 100);
        r.observe(0, Hist::ProbeLen, 5);
        r.record_alpha(0, 3.0);
        assert!(!r.is_enabled());
        assert!(r.snapshot().is_zero());
        assert_eq!(r.snapshot().workers.len(), 0);
    }

    #[test]
    fn sharded_counts_merge() {
        let r = Recorder::enabled(3);
        r.add(0, Counter::HashRows, 10);
        r.add(1, Counter::HashRows, 20);
        r.add(2, Counter::PartRows, 5);
        r.observe(1, Hist::ProbeLen, 2);
        r.record_alpha(2, 1.5);
        r.record_alpha(2, 2.5);
        let snap = r.snapshot();
        assert_eq!(snap.workers.len(), 3);
        assert_eq!(snap.workers[0].counter(Counter::HashRows), 10);
        let m = snap.merged();
        assert_eq!(m.counter(Counter::HashRows), 30);
        assert_eq!(m.counter(Counter::PartRows), 5);
        assert_eq!(m.hist(Hist::ProbeLen).count(), 1);
        assert_eq!(m.alpha_count(), 2);
        assert_eq!(m.alphas(), &[1.5, 2.5]);
        assert!((m.alpha_sum() - 4.0).abs() < 1e-12);
        assert!(!snap.is_zero());
    }

    #[test]
    fn parallel_workers_record_without_interference() {
        let r = Recorder::enabled(4);
        std::thread::scope(|s| {
            for w in 0..4usize {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        r.add(w, Counter::TableInserts, 1);
                        r.observe(w, Hist::ProbeLen, i % 7);
                    }
                });
            }
        });
        let snap = r.snapshot();
        for w in &snap.workers {
            assert_eq!(w.counter(Counter::TableInserts), 10_000);
            assert_eq!(w.hist(Hist::ProbeLen).count(), 10_000);
        }
        assert_eq!(snap.merged().counter(Counter::TableInserts), 40_000);
    }

    #[test]
    fn alpha_list_is_bounded() {
        let r = Recorder::enabled(1);
        for i in 0..(MAX_ALPHAS_PER_WORKER + 100) {
            r.record_alpha(0, i as f64);
        }
        let m = r.snapshot().merged();
        assert_eq!(m.alphas().len(), MAX_ALPHAS_PER_WORKER);
        assert_eq!(m.alpha_count(), (MAX_ALPHAS_PER_WORKER + 100) as u64);
    }

    #[test]
    fn phase_cells_shard_and_merge() {
        let r = Recorder::enabled(2);
        let d = |nanos, rows_in| PhaseCell { nanos, calls: 1, rows_in, rows_out: 0, bytes: 0 };
        r.phase(0, 0, Phase::HashInsert, d(100, 1000));
        r.phase(1, 0, Phase::HashInsert, d(50, 500));
        r.phase(0, 3, Phase::Restore, d(9, 0));
        let snap = r.snapshot();
        assert_eq!(snap.workers[0].phase_cell(0, Phase::HashInsert).nanos, 100);
        assert_eq!(snap.workers[1].phase_cell(0, Phase::HashInsert).rows_in, 500);
        let m = snap.merged();
        assert_eq!(m.phase_cell(0, Phase::HashInsert).nanos, 150);
        assert_eq!(m.phase_cell(0, Phase::HashInsert).calls, 2);
        assert_eq!(m.phase_cell(3, Phase::Restore).nanos, 9);
        assert!(!snap.is_zero());

        let text = snap.to_json().to_string_pretty(2);
        let parsed = crate::json::parse(&text).unwrap();
        let phases = parsed.get("merged").unwrap().get("phases").unwrap();
        let cell = phases.get("level0").unwrap().get("hash_insert").unwrap();
        assert_eq!(cell.get("rows_in").unwrap().as_u64(), Some(1500));
        assert!(phases.get("level1").is_none(), "empty levels are omitted");
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &c in Counter::ALL {
            assert!(seen.insert(c.label()), "dup {}", c.label());
        }
        for &h in Hist::ALL {
            assert!(seen.insert(h.label()), "dup {}", h.label());
        }
    }

    #[test]
    fn snapshot_json_is_valid() {
        let r = Recorder::enabled(2);
        r.add(0, Counter::SwcFlushes, 3);
        r.observe(1, Hist::SealFillPct, 25);
        let text = r.snapshot().to_json().to_string_pretty(2);
        let parsed = crate::json::parse(&text).unwrap();
        let merged = parsed.get("merged").unwrap();
        assert_eq!(merged.get("swc_flushes").unwrap().as_u64(), Some(3));
        assert_eq!(merged.get("seal_fill_pct").unwrap().get("count").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.get("workers").unwrap().as_array().unwrap().len(), 2);
    }
}
