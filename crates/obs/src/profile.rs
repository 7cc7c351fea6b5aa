//! Phase-attributed profiling: the data model behind EXPLAIN ANALYZE.
//!
//! The operator's recursion is a tree — query → pass/level → phase — and
//! the paper's "hashing is sorting" claim is only checkable at runtime if
//! wall-clock and rows can be attributed to each node of that tree. Phase
//! time is recorded through the deep part of the sharded
//! [`crate::Recorder`] (one [`PhaseCell`] per `(worker, level, phase)`), so
//! the hot path pays the same cost as any other deep metric: two clock
//! reads and one uncontended lock per phase when collected, one null check
//! when not.
//!
//! Phase cells store **exclusive** (self) time: when a seal spills a run
//! mid-flight, the spill's nanoseconds land in the `spill` cell and are
//! subtracted from the enclosing `seal` cell. Leaf times are therefore
//! disjoint and sum to the attributed total — the property the coverage
//! figure in [`ProfileTree::render`] reports.

use crate::json::JsonValue;
use crate::recorder::{Counter, MetricsSnapshot};

/// Levels tracked by the profiler. The operator's recursion is bounded by
/// its hash-digit budget (8 levels today); one extra slot absorbs any
/// deeper attribution so a future depth bump degrades gracefully instead
/// of indexing out of bounds — [`crate::Recorder::phase`] clamps into it.
pub const PROFILE_LEVELS: usize = 9;

/// One phase of the recursive aggregation operator. Every nanosecond the
/// operator spends doing real work belongs to exactly one of these.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Inserting/folding rows into a fixed-size hash table (HASHING).
    HashInsert,
    /// Sealing a full or final table into ordered runs.
    Seal,
    /// Partitioning a run by the next hash digit (PARTITIONING).
    Partition,
    /// Merging a bucket's runs through the growable fallback table.
    GrowMerge,
    /// Writing a run to the spill store.
    Spill,
    /// Getting a spilled run back into memory, as seen by the thread that
    /// consumes it: collecting rows the store read ahead, waiting for a
    /// read in flight, or reading and decoding the run itself.
    Restore,
    /// Writing final groups into the result.
    Output,
    /// Dispatch around the work phases: run restoration plumbing, view
    /// setup, table pooling and intermediate-run teardown inside tasks,
    /// and opening the query and dispatching its scopes on the thread
    /// that drives it. Recorded by wrapping each morsel/bucket task, and
    /// the driving thread's part of the query, in this phase — the
    /// nested-time accounting subtracts every inner phase, leaving
    /// exactly the driver's bookkeeping as its exclusive time, so the
    /// leaves still sum to the attributed total.
    Driver,
}

impl Phase {
    /// Every variant, in declaration order.
    pub const ALL: &'static [Phase] = &[
        Phase::HashInsert,
        Phase::Seal,
        Phase::Partition,
        Phase::GrowMerge,
        Phase::Spill,
        Phase::Restore,
        Phase::Output,
        Phase::Driver,
    ];

    /// Number of variants.
    pub const COUNT: usize = Phase::ALL.len();

    /// Stable snake_case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::HashInsert => "hash_insert",
            Phase::Seal => "seal",
            Phase::Partition => "partition",
            Phase::GrowMerge => "grow_merge",
            Phase::Spill => "spill",
            Phase::Restore => "restore",
            Phase::Output => "output",
            Phase::Driver => "driver",
        }
    }
}

/// Accumulated cost of one `(level, phase)` cell — also the *delta* shape
/// passed to [`crate::Recorder::phase`] (with `calls: 1`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseCell {
    /// Exclusive (self) nanoseconds: child-phase time already subtracted.
    pub nanos: u64,
    /// Times the phase ran.
    pub calls: u64,
    /// Rows consumed.
    pub rows_in: u64,
    /// Rows produced (groups for seal/grow-merge/output).
    pub rows_out: u64,
    /// Bytes moved, where meaningful (spill/restore I/O, partition writes).
    pub bytes: u64,
}

impl PhaseCell {
    pub(crate) const EMPTY: PhaseCell =
        PhaseCell { nanos: 0, calls: 0, rows_in: 0, rows_out: 0, bytes: 0 };

    /// Fold `other` into `self`.
    pub fn add(&mut self, other: &PhaseCell) {
        self.nanos += other.nanos;
        self.calls += other.calls;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.bytes += other.bytes;
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.calls == 0 && self.nanos == 0
    }

    /// JSON object with one member per field.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("nanos", JsonValue::U64(self.nanos)),
            ("calls", JsonValue::U64(self.calls)),
            ("rows_in", JsonValue::U64(self.rows_in)),
            ("rows_out", JsonValue::U64(self.rows_out)),
            ("bytes", JsonValue::U64(self.bytes)),
        ])
    }
}

/// The merged phase tree of one run: query → level → phase, with wall
/// clock, thread count, and budget high-water alongside. Built from a
/// [`MetricsSnapshot`] after the operator has quiesced.
#[derive(Clone, Debug)]
pub struct ProfileTree {
    /// End-to-end wall clock of the query.
    pub wall_nanos: u64,
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Highest concurrently reserved byte count the memory budget saw
    /// (0 when the budget is unlimited).
    pub budget_high_water: u64,
    /// Nanoseconds of spill/restore I/O that ran on the store's
    /// background workers concurrently with compute (worker time minus
    /// the time compute threads spent blocked waiting on tickets). 0 with
    /// a spill store without I/O workers (`io_threads: 0`) or no spilling.
    pub overlapped_io_nanos: u64,
    /// Chunk depot traffic, summed over the workers' counters: chunks
    /// recycled, chunks freshly allocated, bytes lent at the high water.
    depot: [u64; 3],
    /// Minor page faults of the process while the query ran.
    minor_faults: u64,
    cells: [[PhaseCell; Phase::COUNT]; PROFILE_LEVELS],
}

impl ProfileTree {
    /// Merge the per-worker phase cells of `snap` into a tree.
    /// `overlapped_io_nanos` is the store-reported background I/O time
    /// that did not stall a compute thread (see the field's doc).
    pub fn build(
        snap: &MetricsSnapshot,
        wall_nanos: u64,
        threads: usize,
        budget_high_water: u64,
        overlapped_io_nanos: u64,
    ) -> Self {
        let mut cells = [[PhaseCell::default(); Phase::COUNT]; PROFILE_LEVELS];
        for w in &snap.workers {
            for (level, row) in cells.iter_mut().enumerate() {
                for &p in Phase::ALL {
                    row[p as usize].add(w.phase_cell(level, p));
                }
            }
        }
        let depot = [Counter::DepotHits, Counter::DepotFresh, Counter::DepotLentHighWater]
            .map(|c| snap.workers.iter().map(|w| w.counter(c)).sum());
        let minor_faults = snap.workers.iter().map(|w| w.counter(Counter::MinorFaults)).sum();
        Self {
            wall_nanos,
            threads,
            budget_high_water,
            overlapped_io_nanos,
            depot,
            minor_faults,
            cells,
        }
    }

    /// The merged cell of one `(level, phase)` node.
    pub fn cell(&self, level: usize, phase: Phase) -> &PhaseCell {
        &self.cells[level.min(PROFILE_LEVELS - 1)][phase as usize]
    }

    /// Exclusive nanoseconds attributed to one level across phases.
    fn level_nanos(&self, level: usize) -> u64 {
        self.cells[level.min(PROFILE_LEVELS - 1)].iter().map(|c| c.nanos).sum()
    }

    /// Total exclusive nanoseconds across all leaves.
    fn total_nanos(&self) -> u64 {
        (0..PROFILE_LEVELS).map(|l| self.level_nanos(l)).sum()
    }

    /// Nanoseconds compute threads spent in spill/restore phases across
    /// levels (submission, waiting on tickets, and synchronous I/O — not
    /// the background workers' own time).
    pub fn io_nanos(&self) -> u64 {
        (0..PROFILE_LEVELS)
            .map(|l| {
                self.cells[l][Phase::Spill as usize].nanos
                    + self.cells[l][Phase::Restore as usize].nanos
            })
            .sum()
    }

    /// Fraction of total spill I/O time hidden behind compute: overlapped
    /// background time over overlapped + compute-thread I/O time. 0.0
    /// when spill I/O is synchronous or absent; approaches 1.0 when the
    /// async pipeline hides nearly all of it.
    pub fn overlap_fraction(&self) -> f64 {
        let total = self.overlapped_io_nanos + self.io_nanos();
        if total == 0 {
            0.0
        } else {
            self.overlapped_io_nanos as f64 / total as f64
        }
    }

    /// Deepest level with any attribution, plus one (0 for an empty tree).
    pub fn levels_used(&self) -> usize {
        (0..PROFILE_LEVELS)
            .rev()
            .find(|&l| self.cells[l].iter().any(|c| !c.is_empty()))
            .map_or(0, |l| l + 1)
    }

    /// Leaf coverage: attributed leaf nanoseconds over the wall-clock
    /// budget (`wall × threads`). At `threads = 1` this is "what share of
    /// the query's wall clock the phase tree explains"; with more threads
    /// it also folds in scheduler idle time, so it doubles as a
    /// utilization figure.
    pub fn coverage(&self) -> f64 {
        let budget = self.wall_nanos.saturating_mul(self.threads.max(1) as u64);
        if budget == 0 {
            0.0
        } else {
            self.total_nanos() as f64 / budget as f64
        }
    }

    /// Render the indented operator tree. Deterministic for a given tree:
    /// level nodes in level order, phase leaves in [`Phase::ALL`] order,
    /// empty nodes omitted. Percentages are of the total attributed time.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.total_nanos();
        let _ = writeln!(
            out,
            "query · wall {} · {} thread{} · {:.1}% of {}×wall attributed to leaf phases",
            fmt_nanos(self.wall_nanos),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            100.0 * self.coverage(),
            self.threads.max(1),
        );
        if self.budget_high_water > 0 {
            let _ = writeln!(out, "├─ budget high-water {}", fmt_bytes(self.budget_high_water));
        }
        let [recycled, fresh, lent] = self.depot;
        if recycled + fresh > 0 {
            let _ = writeln!(
                out,
                "├─ depot chunks {recycled} recycled · {fresh} allocated · lent high-water {}",
                fmt_bytes(lent)
            );
        }
        if self.minor_faults > 0 {
            let _ = writeln!(out, "├─ minor faults {} (whole process)", self.minor_faults);
        }
        let io = self.io_nanos();
        if io > 0 {
            let _ = writeln!(
                out,
                "├─ spill/restore io {} · overlap {:.0}%",
                fmt_nanos(io),
                100.0 * self.overlap_fraction()
            );
        }
        let levels = self.levels_used();
        for level in 0..levels {
            let ln = self.level_nanos(level);
            if self.cells[level].iter().all(PhaseCell::is_empty) {
                continue;
            }
            let last_level =
                (level + 1..levels).all(|l| self.cells[l].iter().all(PhaseCell::is_empty));
            let (tee, bar) = if last_level { ("└─", "  ") } else { ("├─", "│ ") };
            let _ = writeln!(out, "{tee} level {level} · {} · {}", fmt_nanos(ln), pct(ln, total));
            let present: Vec<Phase> = Phase::ALL
                .iter()
                .copied()
                .filter(|&p| !self.cells[level][p as usize].is_empty())
                .collect();
            for (i, p) in present.iter().enumerate() {
                let c = &self.cells[level][*p as usize];
                let leaf_tee = if i + 1 == present.len() { "└─" } else { "├─" };
                let _ = write!(
                    out,
                    "{bar} {leaf_tee} {} · {} · {} · {} calls",
                    p.label(),
                    fmt_nanos(c.nanos),
                    pct(c.nanos, total),
                    c.calls,
                );
                if c.rows_in > 0 || c.rows_out > 0 {
                    let _ = write!(out, " · rows {} → {}", c.rows_in, c.rows_out);
                }
                if *p == Phase::HashInsert && c.rows_out > 0 {
                    let _ = write!(out, " · α {:.2}", c.rows_in as f64 / c.rows_out as f64);
                }
                if c.bytes > 0 {
                    let _ = write!(out, " · {}", fmt_bytes(c.bytes));
                }
                out.push('\n');
            }
        }
        out
    }

    /// JSON view: merged `(level, phase)` cells plus the headline fields.
    /// Per-worker detail lives in the metrics snapshot's `phases` member.
    pub fn to_json(&self) -> JsonValue {
        let levels: Vec<JsonValue> = (0..self.levels_used())
            .filter(|&l| !self.cells[l].iter().all(PhaseCell::is_empty))
            .map(|l| {
                let phases: Vec<(String, JsonValue)> = Phase::ALL
                    .iter()
                    .filter(|&&p| !self.cells[l][p as usize].is_empty())
                    .map(|&p| (p.label().to_string(), self.cells[l][p as usize].to_json()))
                    .collect();
                JsonValue::obj([
                    ("level", JsonValue::U64(l as u64)),
                    ("nanos", JsonValue::U64(self.level_nanos(l))),
                    ("phases", JsonValue::Object(phases)),
                ])
            })
            .collect();
        JsonValue::obj([
            ("wall_nanos", JsonValue::U64(self.wall_nanos)),
            ("threads", JsonValue::U64(self.threads as u64)),
            ("attributed_nanos", JsonValue::U64(self.total_nanos())),
            ("coverage", JsonValue::F64(self.coverage())),
            ("budget_high_water_bytes", JsonValue::U64(self.budget_high_water)),
            ("io_nanos", JsonValue::U64(self.io_nanos())),
            ("overlapped_io_nanos", JsonValue::U64(self.overlapped_io_nanos)),
            ("spill_overlap_fraction", JsonValue::F64(self.overlap_fraction())),
            ("levels", JsonValue::Array(levels)),
        ])
    }
}

fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        "0.0%".to_string()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / total as f64)
    }
}

fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2} s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2} ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2} µs", n as f64 / 1e3)
    } else {
        format!("{n} ns")
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::time::Instant;

    fn delta(nanos: u64, rows_in: u64, rows_out: u64, bytes: u64) -> PhaseCell {
        PhaseCell { nanos, calls: 1, rows_in, rows_out, bytes }
    }

    #[test]
    fn labels_are_unique_and_all_is_complete() {
        let mut seen = std::collections::BTreeSet::new();
        for &p in Phase::ALL {
            assert!(seen.insert(p.label()), "dup {}", p.label());
        }
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
    }

    #[test]
    fn build_merges_workers_and_levels_sum() {
        let r = Recorder::deep(2);
        r.phase(0, 0, Phase::HashInsert, delta(100, 1000, 250, 0), Instant::now(), 0);
        r.phase(1, 0, Phase::HashInsert, delta(300, 3000, 750, 0), Instant::now(), 0);
        r.phase(0, 0, Phase::Seal, delta(50, 1000, 1000, 0), Instant::now(), 0);
        r.phase(1, 1, Phase::GrowMerge, delta(70, 500, 100, 0), Instant::now(), 0);
        let t = ProfileTree::build(&r.snapshot(), 1000, 2, 4096, 0);

        let hi = t.cell(0, Phase::HashInsert);
        assert_eq!(hi.nanos, 400);
        assert_eq!(hi.calls, 2);
        assert_eq!(hi.rows_in, 4000);
        assert_eq!(hi.rows_out, 1000);
        assert_eq!(t.level_nanos(0), 450);
        assert_eq!(t.level_nanos(1), 70);
        assert_eq!(t.total_nanos(), 520);
        assert_eq!(t.levels_used(), 2);
        assert_eq!(t.budget_high_water, 4096);
        // Level totals are sums of their leaves — the child ≤ parent
        // invariant holds by construction and stays checkable here.
        for level in 0..PROFILE_LEVELS {
            let leaf_sum: u64 = Phase::ALL.iter().map(|&p| t.cell(level, p).nanos).sum();
            assert_eq!(t.level_nanos(level), leaf_sum);
            assert!(leaf_sum <= t.total_nanos());
        }
    }

    #[test]
    fn deep_levels_clamp_into_the_last_slot() {
        let r = Recorder::deep(1);
        r.phase(0, 200, Phase::Partition, delta(5, 10, 10, 0), Instant::now(), 0);
        let t = ProfileTree::build(&r.snapshot(), 100, 1, 0, 0);
        assert_eq!(t.cell(PROFILE_LEVELS - 1, Phase::Partition).nanos, 5);
        assert_eq!(t.cell(PROFILE_LEVELS + 7, Phase::Partition).nanos, 5);
    }

    #[test]
    fn coverage_is_leaf_time_over_wall_times_threads() {
        let r = Recorder::deep(2);
        r.phase(0, 0, Phase::HashInsert, delta(900, 0, 0, 0), Instant::now(), 0);
        r.phase(1, 0, Phase::Partition, delta(500, 0, 0, 0), Instant::now(), 0);
        let t = ProfileTree::build(&r.snapshot(), 1000, 2, 0, 0);
        assert!((t.coverage() - 0.7).abs() < 1e-12);
        let empty = ProfileTree::build(&Recorder::counters(1).snapshot(), 0, 1, 0, 0);
        assert_eq!(empty.coverage(), 0.0);
    }

    #[test]
    fn overlap_fraction_is_zero_for_synchronous_io() {
        let r = Recorder::deep(1);
        r.phase(0, 0, Phase::Spill, delta(100, 50, 0, 4096), Instant::now(), 0);
        r.phase(0, 1, Phase::Restore, delta(60, 0, 50, 4096), Instant::now(), 0);
        let t = ProfileTree::build(&r.snapshot(), 1000, 1, 0, 0);
        assert_eq!(t.io_nanos(), 160);
        assert_eq!(t.overlap_fraction(), 0.0);
    }

    #[test]
    fn overlap_fraction_is_overlapped_over_total_io() {
        let r = Recorder::deep(1);
        r.phase(0, 0, Phase::Spill, delta(100, 50, 0, 4096), Instant::now(), 0);
        r.phase(0, 1, Phase::Restore, delta(60, 0, 50, 4096), Instant::now(), 0);
        // 480 ns of background I/O ran while compute threads spent 160 ns
        // in the foreground phases: 480 / (480 + 160) = 75% hidden.
        let t = ProfileTree::build(&r.snapshot(), 1000, 1, 0, 480);
        assert_eq!(t.overlapped_io_nanos, 480);
        assert!((t.overlap_fraction() - 0.75).abs() < 1e-12);
        let json = t.to_json();
        assert_eq!(json.get("overlapped_io_nanos").and_then(|v| v.as_u64()), Some(480));
        // The render's io line shows the overlap share.
        assert!(t.render().contains("overlap 75%"), "render: {}", t.render());
    }

    #[test]
    fn render_golden() {
        // Timings are inputs, so the rendering is fully deterministic.
        let r = Recorder::deep(1);
        r.phase(0, 0, Phase::HashInsert, delta(600_000, 8000, 2000, 0), Instant::now(), 0);
        r.phase(0, 0, Phase::Seal, delta(200_000, 2000, 2000, 0), Instant::now(), 0);
        r.phase(0, 1, Phase::Output, delta(200_000, 2000, 2000, 0), Instant::now(), 0);
        r.add(0, Counter::DepotHits, 30);
        r.add(0, Counter::DepotFresh, 2);
        r.add(0, Counter::DepotLentHighWater, 3 << 20);
        r.add(0, Counter::MinorFaults, 6_000);
        let t = ProfileTree::build(&r.snapshot(), 1_000_000, 1, 0, 0);
        let expected = "\
query · wall 1.00 ms · 1 thread · 100.0% of 1×wall attributed to leaf phases
├─ depot chunks 30 recycled · 2 allocated · lent high-water 3.00 MiB
├─ minor faults 6000 (whole process)
├─ level 0 · 800.00 µs · 80.0%
│  ├─ hash_insert · 600.00 µs · 60.0% · 1 calls · rows 8000 → 2000 · α 4.00
│  └─ seal · 200.00 µs · 20.0% · 1 calls · rows 2000 → 2000
└─ level 1 · 200.00 µs · 20.0%
   └─ output · 200.00 µs · 20.0% · 1 calls · rows 2000 → 2000
";
        assert_eq!(t.render(), expected);
    }

    #[test]
    fn json_round_trips_and_omits_empty_cells() {
        let r = Recorder::deep(1);
        r.phase(0, 0, Phase::HashInsert, delta(100, 10, 5, 0), Instant::now(), 0);
        let t = ProfileTree::build(&r.snapshot(), 500, 1, 123, 0);
        let parsed = crate::json::parse(&t.to_json().to_string_pretty(2)).unwrap();
        assert_eq!(parsed.get("wall_nanos").unwrap().as_u64(), Some(500));
        assert_eq!(parsed.get("budget_high_water_bytes").unwrap().as_u64(), Some(123));
        let levels = parsed.get("levels").unwrap().as_array().unwrap();
        assert_eq!(levels.len(), 1);
        let phases = levels[0].get("phases").unwrap();
        assert!(phases.get("hash_insert").is_some());
        assert!(phases.get("seal").is_none());
        assert_eq!(phases.get("hash_insert").unwrap().get("rows_in").unwrap().as_u64(), Some(10));
    }
}
