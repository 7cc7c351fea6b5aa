//! The per-worker sharded recorder: the one place an operator event is
//! counted.
//!
//! One cache-line-padded shard per worker. Every shard has an always-on
//! part — the flat [`Counter`] cells, the per-level [`LevelCounter`]
//! cells and the worker's current `(level, phase)` position, ≈ 0.5 KB of
//! `AtomicU64`s that the operator's statistics are lowered from — and,
//! when built with [`Recorder::deep`], a deep part behind one mutex:
//! [`Histogram`]s, phase cells and α samples. A recorder built with
//! [`Recorder::traced`] also keeps the task timeline behind that mutex:
//! each timed phase call's span and each event's instant, bounded per
//! worker (`crate::trace`). Recording is a relaxed
//! atomic add into the worker's own shard (or one uncontended lock for
//! the deep part) — the per-thread design the paper's own hash tables
//! use, applied to metrics. Every recording site fires per morsel, run,
//! seal or event, never per row.
//!
//! Nothing here needs the writers to stop: [`Recorder::snapshot`] may be
//! taken at any time, also while a query runs. Each cell it reads is
//! exact on its own; a snapshot taken mid-query is not consistent across
//! cells (a seal may show in one counter and not yet in another), one
//! taken after the workers finished is the query's final account. The
//! timeline stays out of the snapshot: [`Recorder::trace_json`] renders
//! it, and a heartbeat's snapshot copies none of it.
//!
//! A [`Recorder::counters`] recorder allocates no deep part; the deep
//! recording calls are a null check on it, so instrumented code needs no
//! `if enabled` of its own.

use crate::hist::Histogram;
use crate::json::JsonValue;
use crate::profile::{Phase, PhaseCell, PROFILE_LEVELS};
use crate::trace::{self, Timeline};
use crate::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

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
    /// Monotonic per-worker counters (always on).
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
        /// Hash-table key inserts (new + hit); deep metrics only.
        TableInserts => "table_inserts",
        /// Total linear-probe steps beyond the home slot; deep metrics only.
        ProbeSteps => "probe_steps",
        /// Bytes the PARTITIONING passes wrote: 8 per row for the key and
        /// for every column that travelled with it.
        PartBytes => "part_bytes",
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
        /// Bytes those reclaimed files occupied.
        SpillReclaimedBytes => "spill_reclaimed_bytes",
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
        /// Chunks the query was lent from the depot's shelves.
        DepotHits => "depot_hits",
        /// Chunks the query was lent freshly allocated (shelf empty).
        DepotFresh => "depot_fresh",
        /// Most bytes of chunks the query held lent at once.
        DepotLentHighWater => "depot_lent_high_water_bytes",
        /// Minor page faults of the whole process while the query ran
        /// (see [`crate::minor_faults`]); deep metrics only.
        MinorFaults => "minor_faults",
    }
}

metric_enum! {
    /// Per-worker counters kept per recursion level (always on). Reports
    /// show each as its sum over the levels under the same label.
    LevelCounter {
        /// Rows consumed by the HASHING routine.
        HashRows => "hash_rows",
        /// Rows consumed by the PARTITIONING routine.
        PartRows => "part_rows",
        /// Elapsed nanoseconds of the tasks that ran at the level (CPU
        /// time: tasks of different levels run concurrently).
        TaskNanos => "task_nanos",
        /// Runs flushed to the spill directory after a denied reservation
        /// was downgraded to out-of-core storage.
        SpilledRuns => "spilled_runs",
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

/// The deep part of a shard: what `metrics: true` buys beyond the counters.
#[derive(Clone, Debug)]
struct DeepCells {
    hists: [Histogram; Hist::COUNT],
    phases: [[PhaseCell; Phase::COUNT]; PROFILE_LEVELS],
    alphas: Vec<f64>,
    alpha_count: u64,
    alpha_sum: f64,
}

impl DeepCells {
    const fn new() -> Self {
        Self {
            hists: [const { Histogram::new() }; Hist::COUNT],
            phases: [[PhaseCell::EMPTY; Phase::COUNT]; PROFILE_LEVELS],
            alphas: Vec::new(),
            alpha_count: 0,
            alpha_sum: 0.0,
        }
    }

    fn merge_from(&mut self, other: &DeepCells) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        for (a, b) in self.phases.iter_mut().flatten().zip(other.phases.iter().flatten()) {
            a.add(b);
        }
        let room = MAX_ALPHAS_PER_WORKER.saturating_sub(self.alphas.len());
        self.alphas.extend(other.alphas.iter().take(room).copied());
        self.alpha_count += other.alpha_count;
        self.alpha_sum += other.alpha_sum;
    }
}

/// What a shard without a deep part reads as.
static NO_DEEP: DeepCells = DeepCells::new();

/// What a shard keeps behind its one lock: the deep cells, written with
/// deep metrics, and the timeline, written with a trace.
struct Locked {
    cells: DeepCells,
    timeline: Timeline,
}

/// One worker's cells.
struct Shard {
    counters: [AtomicU64; Counter::COUNT],
    levels: [[AtomicU64; PROFILE_LEVELS]; LevelCounter::COUNT],
    /// Where the worker is: `(level + 1) << 8 | (phase + 1)`, 0 before
    /// its first phase.
    position: AtomicU64,
    locked: Option<Box<Mutex<Locked>>>,
}

impl Shard {
    fn new(locked: bool, capacity: usize) -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            levels: [const { [const { AtomicU64::new(0) }; PROFILE_LEVELS] }; LevelCounter::COUNT],
            position: AtomicU64::new(0),
            locked: locked.then(|| {
                let timeline = Timeline::new(capacity);
                Box::new(Mutex::new(Locked { cells: DeepCells::new(), timeline }))
            }),
        }
    }

    fn lock(&self) -> Option<MutexGuard<'_, Locked>> {
        // A panic while the lock was held left whole cells behind: every
        // update under it is a single add or push.
        self.locked.as_deref().map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn read(&self, deep: bool) -> WorkerSnapshot {
        // ORDERING: Relaxed — statistics cells; each load is exact for its
        // cell, and no other memory is read through them.
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        WorkerSnapshot {
            counters: self.counters.each_ref().map(load),
            levels: self.levels.each_ref().map(|row| row.each_ref().map(load)),
            position: unpack(load(&self.position)),
            deep: if deep { self.lock().map(|l| Box::new(l.cells.clone())) } else { None },
        }
    }
}

fn unpack(packed: u64) -> Option<(u32, Phase)> {
    let level = ((packed >> 8) as u32).checked_sub(1)?;
    let phase = *Phase::ALL.get(((packed & 0xff) as usize).checked_sub(1)?)?;
    Some((level, phase))
}

/// The sharded cells of one query: a cheap cloneable handle, so the
/// query's context and a live reader (the progress sampler) share it.
/// Every method is safe to call from any thread at any time.
#[derive(Clone)]
pub struct Recorder {
    shards: Arc<[CachePadded<Shard>]>,
    deep: bool,
    /// The timeline's time zero, when it is kept.
    epoch: Option<Instant>,
}

impl Recorder {
    /// A recorder with the always-on counter cells only, one shard per
    /// worker; the deep recording calls are null checks on it.
    pub fn counters(workers: usize) -> Self {
        Self::new(workers, false, None, 0)
    }

    /// A recorder that also collects the deep part: histograms, phase
    /// cells and α samples.
    pub fn deep(workers: usize) -> Self {
        Self::new(workers, true, None, 0)
    }

    /// A recorder that keeps the task timeline — up to `capacity` marks
    /// per worker, timed from `epoch`; later marks are counted as dropped
    /// — and, when `deep`, the deep part too.
    pub fn traced(workers: usize, deep: bool, epoch: Instant, capacity: usize) -> Self {
        Self::new(workers, deep, Some(epoch), capacity)
    }

    fn new(workers: usize, deep: bool, epoch: Option<Instant>, capacity: usize) -> Self {
        let locked = deep || epoch.is_some();
        let shards =
            (0..workers.max(1)).map(|_| CachePadded(Shard::new(locked, capacity))).collect();
        Self { shards, deep, epoch }
    }

    /// Whether the deep part is collected.
    #[inline]
    pub fn is_deep(&self) -> bool {
        self.deep
    }

    /// Whether phase calls are timed: for the deep part's phase cells,
    /// the timeline's spans, or both.
    #[inline]
    pub fn is_timed(&self) -> bool {
        self.deep || self.epoch.is_some()
    }

    #[inline]
    fn shard(&self, worker: usize) -> &Shard {
        &self.shards[worker].0
    }

    /// Add `n` to counter `c` of `worker`.
    #[inline]
    pub fn add(&self, worker: usize, c: Counter, n: u64) {
        // ORDERING: Relaxed — a statistics cell; concurrent adds stay
        // exact, and no other memory is published through it.
        self.shard(worker).counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to the `level` cell of per-level counter `c` of `worker`.
    /// Levels beyond [`PROFILE_LEVELS`] clamp into the last slot.
    #[inline]
    pub fn add_level(&self, worker: usize, c: LevelCounter, level: u32, n: u64) {
        let cell = &self.shard(worker).levels[c as usize][(level as usize).min(PROFILE_LEVELS - 1)];
        // ORDERING: Relaxed — a statistics cell, as in `add`.
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Store where `worker` is now: the phase it entered, at `level`.
    #[inline]
    pub fn set_position(&self, worker: usize, level: u32, phase: Phase) {
        let packed = ((u64::from(level) + 1) << 8) | (phase as u64 + 1);
        // ORDERING: Relaxed — an advisory position for the heartbeat; a
        // reader tolerates a stale one and nothing else rides on it.
        self.shard(worker).position.store(packed, Ordering::Relaxed);
    }

    /// Run `f` on `worker`'s deep cells under the shard's lock; a null
    /// check without the deep part.
    #[inline]
    fn with_deep(&self, worker: usize, f: impl FnOnce(&mut DeepCells)) {
        if !self.deep {
            return;
        }
        if let Some(mut locked) = self.shard(worker).lock() {
            f(&mut locked.cells);
        }
    }

    /// Record `value` into histogram `h` of `worker`.
    #[inline]
    pub fn observe(&self, worker: usize, h: Hist, value: u64) {
        self.with_deep(worker, |deep| deep.hists[h as usize].record(value));
    }

    /// Fold a locally collected histogram into histogram `h` of `worker`
    /// (used to flush per-table collectors at seal time).
    pub fn merge_hist(&self, worker: usize, h: Hist, other: &Histogram) {
        self.with_deep(worker, |deep| deep.hists[h as usize].merge(other));
    }

    /// Record one phase call of `worker`: fold `delta` into its
    /// `(level, phase)` cell (levels beyond [`PROFILE_LEVELS`] clamp into
    /// the last slot) and, with a timeline, append the call's span — from
    /// `start`, `inclusive_nanos` long, nested phases included, carrying
    /// the level and `delta.rows_in` — under the same lock.
    #[inline]
    pub fn phase(
        &self,
        worker: usize,
        level: u32,
        phase: Phase,
        delta: PhaseCell,
        start: Instant,
        inclusive_nanos: u64,
    ) {
        let Some(mut locked) = self.shard(worker).lock() else { return };
        if self.deep {
            let cell = (level as usize).min(PROFILE_LEVELS - 1);
            locked.cells.phases[cell][phase as usize].add(&delta);
        }
        if let Some(epoch) = self.epoch {
            let start_nanos = start.saturating_duration_since(epoch).as_nanos() as u64;
            let args = [("level", u64::from(level)), ("rows", delta.rows_in)];
            locked.timeline.push(phase.label(), start_nanos, Some(inclusive_nanos), &args);
        }
    }

    /// Mark the instant `name` on `worker`'s timeline, with up to two
    /// numeric args; a null check without a timeline.
    pub fn instant(&self, worker: usize, name: &'static str, args: &[(&'static str, u64)]) {
        let Some(epoch) = self.epoch else { return };
        if let Some(mut locked) = self.shard(worker).lock() {
            let at = epoch.elapsed().as_nanos() as u64;
            locked.timeline.push(name, at, None, args);
        }
    }

    /// Record the reduction factor observed at one adaptive switch.
    #[inline]
    pub fn record_alpha(&self, worker: usize, alpha: f64) {
        self.with_deep(worker, |deep| {
            if deep.alphas.len() < MAX_ALPHAS_PER_WORKER {
                deep.alphas.push(alpha);
            }
            deep.alpha_count += 1;
            deep.alpha_sum += alpha;
        });
    }

    /// Copy all shards into a snapshot. Legal at any time; mid-query each
    /// cell is exact on its own but the cells are not read at one instant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot { workers: self.shards.iter().map(|s| s.0.read(self.deep)).collect() }
    }

    /// The timeline as a Chrome trace-event JSON document, one lane per
    /// worker (`{"traceEvents": [...], "droppedEvents": n, ...}`: load it
    /// in Perfetto or `chrome://tracing`); `None` without a timeline.
    /// Legal at any time: each lane is read under its shard's lock, one
    /// shard at a time.
    pub fn trace_json(&self) -> Option<String> {
        self.epoch?;
        let mut events = Vec::new();
        let dropped: Vec<u64> = (self.shards.iter().enumerate())
            .map(|(tid, s)| s.0.lock().map_or(0, |locked| locked.timeline.lane(tid, &mut events)))
            .collect();
        Some(trace::chrome_json(events, &dropped))
    }
}

/// Immutable copy of one worker's shard.
#[derive(Clone, Debug)]
pub struct WorkerSnapshot {
    counters: [u64; Counter::COUNT],
    levels: [[u64; PROFILE_LEVELS]; LevelCounter::COUNT],
    position: Option<(u32, Phase)>,
    deep: Option<Box<DeepCells>>,
}

impl WorkerSnapshot {
    fn empty() -> Self {
        Self {
            counters: [0; Counter::COUNT],
            levels: [[0; PROFILE_LEVELS]; LevelCounter::COUNT],
            position: None,
            deep: None,
        }
    }

    /// Value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The per-level cells of counter `c`, index = recursion level.
    pub fn level_counter(&self, c: LevelCounter) -> &[u64; PROFILE_LEVELS] {
        &self.levels[c as usize]
    }

    /// Counter `c` summed over the levels.
    pub fn level_total(&self, c: LevelCounter) -> u64 {
        self.level_counter(c).iter().sum()
    }

    /// The `(level, phase)` the worker last entered; `None` before its
    /// first phase, and on a merged snapshot.
    pub fn position(&self) -> Option<(u32, Phase)> {
        self.position
    }

    fn deep(&self) -> &DeepCells {
        self.deep.as_deref().unwrap_or(&NO_DEEP)
    }

    /// Histogram `h` (empty without the deep part).
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.deep().hists[h as usize]
    }

    /// The `(level, phase)` profiling cell. Levels beyond
    /// [`PROFILE_LEVELS`] clamp into the last slot.
    pub fn phase_cell(&self, level: usize, phase: Phase) -> &PhaseCell {
        &self.deep().phases[level.min(PROFILE_LEVELS - 1)][phase as usize]
    }

    /// Recorded per-switch α values (bounded; see [`Self::alpha_count`]).
    pub fn alphas(&self) -> &[f64] {
        &self.deep().alphas
    }

    /// Total switches that recorded an α (may exceed `alphas().len()`).
    pub fn alpha_count(&self) -> u64 {
        self.deep().alpha_count
    }

    /// Sum of all recorded α values.
    pub fn alpha_sum(&self) -> f64 {
        self.deep().alpha_sum
    }

    fn merge_from(&mut self, other: &WorkerSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.levels.iter_mut().flatten().zip(other.levels.iter().flatten()) {
            *a += b;
        }
        if let Some(deep) = &other.deep {
            self.deep.get_or_insert_with(|| Box::new(DeepCells::new())).merge_from(deep);
        }
    }

    /// JSON object with one member per counter (per-level counters as
    /// their totals), histogram, and the α list.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs: Vec<(String, JsonValue)> = Counter::ALL
            .iter()
            .map(|&c| (c.label().to_string(), JsonValue::U64(self.counter(c))))
            .collect();
        for &c in LevelCounter::ALL {
            pairs.push((c.label().to_string(), JsonValue::U64(self.level_total(c))));
        }
        for &h in Hist::ALL {
            pairs.push((h.label().to_string(), self.hist(h).to_json()));
        }
        let deep = self.deep();
        let phases: Vec<(String, JsonValue)> = deep
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
            JsonValue::Array(deep.alphas.iter().map(|&a| JsonValue::F64(a)).collect()),
        ));
        pairs.push(("alpha_count".to_string(), JsonValue::U64(deep.alpha_count)));
        pairs.push(("alpha_sum".to_string(), JsonValue::F64(deep.alpha_sum)));
        JsonValue::Object(pairs)
    }
}

/// All workers' cells, copied at one [`Recorder::snapshot`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Per-worker snapshots, index = worker index.
    pub workers: Vec<WorkerSnapshot>,
}

impl MetricsSnapshot {
    /// All workers folded into one.
    pub fn merged(&self) -> WorkerSnapshot {
        let mut out = WorkerSnapshot::empty();
        for w in &self.workers {
            out.merge_from(w);
        }
        out
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
    fn counters_only_recorder_counts_and_drops_the_deep_calls() {
        let r = Recorder::counters(2);
        r.add(1, Counter::TablesSealed, 3);
        r.add_level(0, LevelCounter::HashRows, 2, 100);
        r.observe(0, Hist::ProbeLen, 5);
        r.record_alpha(0, 3.0);
        r.phase(
            1,
            0,
            Phase::Seal,
            PhaseCell { nanos: 9, calls: 1, ..PhaseCell::EMPTY },
            Instant::now(),
            0,
        );
        assert!(!r.is_deep());
        let snap = r.snapshot();
        assert_eq!(snap.workers.len(), 2);
        let m = snap.merged();
        assert_eq!(m.counter(Counter::TablesSealed), 3);
        assert_eq!(m.level_counter(LevelCounter::HashRows)[2], 100);
        assert!(m.hist(Hist::ProbeLen).is_empty());
        assert_eq!(m.alpha_count(), 0);
        assert!(m.phase_cell(0, Phase::Seal).is_empty());
    }

    #[test]
    fn the_always_on_part_of_a_shard_stays_small() {
        // What every query pays per worker, observed or not.
        assert!(std::mem::size_of::<Shard>() <= 640);
    }

    #[test]
    fn sharded_counts_merge() {
        let r = Recorder::deep(3);
        r.add(0, Counter::TablesSealed, 10);
        r.add(1, Counter::TablesSealed, 20);
        r.add_level(2, LevelCounter::PartRows, 0, 5);
        r.add_level(0, LevelCounter::PartRows, 1, 7);
        r.add_level(1, LevelCounter::TaskNanos, 200, 1);
        r.observe(1, Hist::ProbeLen, 2);
        r.record_alpha(2, 1.5);
        r.record_alpha(2, 2.5);
        let snap = r.snapshot();
        assert_eq!(snap.workers.len(), 3);
        assert_eq!(snap.workers[0].counter(Counter::TablesSealed), 10);
        let m = snap.merged();
        assert_eq!(m.counter(Counter::TablesSealed), 30);
        assert_eq!(m.level_counter(LevelCounter::PartRows)[..2], [5, 7]);
        assert_eq!(m.level_total(LevelCounter::PartRows), 12);
        assert_eq!(m.level_counter(LevelCounter::TaskNanos)[PROFILE_LEVELS - 1], 1, "clamped");
        assert_eq!(m.hist(Hist::ProbeLen).count(), 1);
        assert_eq!(m.alpha_count(), 2);
        assert_eq!(m.alphas(), &[1.5, 2.5]);
        assert!((m.alpha_sum() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_workers_record_without_interference() {
        let r = Recorder::deep(4);
        std::thread::scope(|s| {
            for w in 0..4usize {
                let r = &r;
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
        let r = Recorder::deep(1);
        for i in 0..(MAX_ALPHAS_PER_WORKER + 100) {
            r.record_alpha(0, i as f64);
        }
        let m = r.snapshot().merged();
        assert_eq!(m.alphas().len(), MAX_ALPHAS_PER_WORKER);
        assert_eq!(m.alpha_count(), (MAX_ALPHAS_PER_WORKER + 100) as u64);
    }

    #[test]
    fn phase_cells_shard_and_merge() {
        let r = Recorder::deep(2);
        let d = |nanos, rows_in| PhaseCell { nanos, calls: 1, rows_in, rows_out: 0, bytes: 0 };
        r.phase(0, 0, Phase::HashInsert, d(100, 1000), Instant::now(), 0);
        r.phase(1, 0, Phase::HashInsert, d(50, 500), Instant::now(), 0);
        r.phase(0, 3, Phase::Restore, d(9, 0), Instant::now(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.workers[0].phase_cell(0, Phase::HashInsert).nanos, 100);
        assert_eq!(snap.workers[1].phase_cell(0, Phase::HashInsert).rows_in, 500);
        let m = snap.merged();
        assert_eq!(m.phase_cell(0, Phase::HashInsert).nanos, 150);
        assert_eq!(m.phase_cell(0, Phase::HashInsert).calls, 2);
        assert_eq!(m.phase_cell(3, Phase::Restore).nanos, 9);

        let text = snap.to_json().to_string_pretty(2);
        let parsed = crate::json::parse(&text).unwrap();
        let phases = parsed.get("merged").unwrap().get("phases").unwrap();
        let cell = phases.get("level0").unwrap().get("hash_insert").unwrap();
        assert_eq!(cell.get("rows_in").unwrap().as_u64(), Some(1500));
        assert!(phases.get("level1").is_none(), "empty levels are omitted");
    }

    /// Spans and instants of each lane, parsed back from the trace.
    fn marks(r: &Recorder) -> Vec<Vec<(String, String, u64)>> {
        let trace = crate::json::parse(&r.trace_json().expect("a timeline")).unwrap();
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        let mut lanes = vec![Vec::new(); r.shards.len()];
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph != "M" {
                let lane = e.get("tid").unwrap().as_u64().unwrap() as usize;
                let level = e.get("args").and_then(|a| a.get("level")).and_then(|l| l.as_u64());
                let name = e.get("name").unwrap().as_str().unwrap().to_string();
                lanes[lane].push((ph.to_string(), name, level.unwrap_or(u64::MAX)));
            }
        }
        lanes
    }

    #[test]
    fn a_timeline_holds_one_span_per_phase_call_and_the_instants() {
        let epoch = Instant::now();
        let r = Recorder::traced(2, true, epoch, 64);
        let d = PhaseCell { nanos: 5, calls: 1, rows_in: 7, ..PhaseCell::EMPTY };
        r.phase(0, 0, Phase::HashInsert, d, epoch, 40);
        r.phase(1, PROFILE_LEVELS as u32 + 2, Phase::Seal, d, epoch, 9);
        r.instant(1, "seal", &[("groups", 3)]);
        let m = r.snapshot().merged();
        assert_eq!(m.phase_cell(0, Phase::HashInsert).calls, 1);
        assert_eq!(m.phase_cell(PROFILE_LEVELS, Phase::Seal).calls, 1, "clamped");
        let lanes = marks(&r);
        assert_eq!(lanes[0], [("X".into(), "hash_insert".into(), 0)]);
        let deep_level = PROFILE_LEVELS as u64 + 2;
        assert_eq!(
            lanes[1],
            [("X".into(), "seal".into(), deep_level), ("i".into(), "seal".into(), u64::MAX)],
            "a span carries its level unclamped"
        );
        let trace = crate::json::parse(&r.trace_json().unwrap()).unwrap();
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        let span = events.iter().find(|e| e.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(0.0), "timed from the epoch");
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(0.04), "inclusive, not the cell's 5");
        assert_eq!(span.get("args").unwrap().get("rows").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn a_timeline_without_the_deep_part_fills_no_cell() {
        let r = Recorder::traced(1, false, Instant::now(), 2);
        assert!(!r.is_deep() && r.is_timed());
        let d = PhaseCell { nanos: 5, calls: 1, ..PhaseCell::EMPTY };
        for _ in 0..3 {
            r.phase(0, 0, Phase::Partition, d, Instant::now(), 5);
        }
        r.observe(0, Hist::ProbeLen, 1);
        let m = r.snapshot().merged();
        assert!(m.phase_cell(0, Phase::Partition).is_empty() && m.hist(Hist::ProbeLen).is_empty());
        assert_eq!(marks(&r)[0].len(), 2, "bounded at the capacity");
        let trace = crate::json::parse(&r.trace_json().unwrap()).unwrap();
        assert_eq!(trace.get("droppedEvents").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn without_a_timeline_there_is_no_trace() {
        for r in [Recorder::counters(1), Recorder::deep(1)] {
            r.instant(0, "seal", &[]);
            assert!(r.trace_json().is_none());
        }
        assert!(!Recorder::counters(1).is_timed() && Recorder::deep(1).is_timed());
    }

    #[test]
    fn position_roundtrips_every_phase_and_level() {
        let r = Recorder::counters(2);
        assert_eq!(r.snapshot().workers[0].position(), None, "no phase entered yet");
        for &p in Phase::ALL {
            for level in [0, 1, PROFILE_LEVELS as u32 + 3] {
                r.set_position(0, level, p);
                let snap = r.snapshot();
                assert_eq!(snap.workers[0].position(), Some((level, p)));
                assert_eq!(snap.workers[1].position(), None);
                assert_eq!(snap.merged().position(), None);
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let counters = Counter::ALL.iter().map(|c| c.label());
        let levels = LevelCounter::ALL.iter().map(|c| c.label());
        let hists = Hist::ALL.iter().map(|h| h.label());
        for label in counters.chain(levels).chain(hists) {
            assert!(seen.insert(label), "dup {label}");
        }
    }
}
