//! The scenario harness: one immutable [`Scenario`] whose outcome is a
//! pure function of it, one [`check`] that holds every outcome to the
//! operator's contract (DESIGN.md §7 is the clause table), one ordinal
//! [`sweep`], and a shrinker that halves a failing scenario one dimension
//! at a time and prints the smallest one as a Rust literal.
//!
//! `tests/scenarios.rs` is the one target that includes it and uses all
//! of it, so an unused item warns.

use hashing_is_sorting::datagen::{generate, Distribution, SplitMix64};
use hashing_is_sorting::kernels::{digit, Hasher64, Murmur2};
use hashing_is_sorting::obs::json::{parse, JsonValue};
use hashing_is_sorting::obs::{Counter, Hist, LevelCounter, Phase};
use hashing_is_sorting::{
    depot, try_aggregate, try_aggregate_observed, try_merge_partials, AdaptiveParams, AggError,
    AggFn, AggSpec, AggStream, AggregateConfig, CancelReason, CancelToken, DiskBudget, ExecEnv,
    FaultInjector, FaultPlan, GroupByOutput, MemoryBudget, ObsConfig, OpStats, RunReport,
    SpillConfig, Strategy,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Once};
use std::time::Duration;

/// Where the grouping keys come from (`n` rows over about `k` groups).
#[derive(Clone, Copy, Debug)]
pub enum Keys {
    /// A §6.5 distribution from `datagen`.
    Data(Distribution),
    /// Random 64-bit keys: nearly every row is its own group.
    Wide,
    /// Keys at both ends of the domain (`u64::MAX` is the growable
    /// table's floor probe) and values at the states' identities.
    Extremes,
    /// `u64::MAX - i % k` in row `i`: every key at the top of the domain.
    Saturated,
    /// `k` keys whose level-0 hash digit is below the bound: the recursion
    /// must descend past a shared digit, a writer touches that many runs.
    Digits(usize),
    /// `k` hot keys, then 16 keys sharing digit 0 in the last rows: a
    /// 64 KiB table seals once mid-input and leaves a second, leftover
    /// table — two seals whose few runs keep the I/O sweeps short.
    SealBurst,
}

/// How the input is cut into pushes (stream doors) or partials (merge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cuts {
    Whole,
    Every(usize),
    /// Seeded lengths, empty and one-row chunks included.
    Random,
}

/// The entry point a scenario goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Door {
    /// `try_aggregate_observed`.
    OneShot,
    /// `AggStream`, one push per cut.
    Stream,
    /// `try_merge_partials` over one `try_aggregate` partial per cut.
    Merge,
    /// `AggStream` dropped after half its pushes, without `finish`.
    Abandon,
}

/// The cancellation token a scenario runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cancel {
    Never,
    /// Cancelled before the first row.
    Requested,
    /// A deadline that has already passed.
    Deadline,
    /// Cancelled from another thread once the first injected spill fault
    /// fires: a race the query may win.
    OnFirstFault,
}

/// One run of the operator, fully described.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub keys: Keys,
    pub n: usize,
    pub k: u64,
    pub seed: u64,
    /// Input column `j` of the data is what `AggSpec::sum(j)` etc. read.
    pub specs: Vec<AggSpec>,
    pub strategy: Strategy,
    pub cache_bytes: usize,
    pub fill_percent: usize,
    pub morsel_rows: usize,
    pub threads: usize,
    pub cuts: Cuts,
    pub mem_budget: Option<u64>,
    pub disk_budget: Option<u64>,
    /// Whether a spill directory is set.
    pub spill: bool,
    pub io_threads: usize,
    pub faults: FaultPlan,
    pub cancel: Cancel,
    /// Queries in flight beside this one: other seeds of the same
    /// scenario at one to three workers (see [`Scenario::neighbour`]).
    pub neighbours: usize,
    /// Whether every second neighbour is cancelled.
    pub victims: bool,
    pub door: Door,
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            keys: Keys::Data(Distribution::Uniform),
            n: 20_000,
            k: 1_000,
            seed: 1,
            specs: vec![AggSpec::count(), AggSpec::sum(0)],
            strategy: Strategy::Adaptive(AdaptiveParams::default()),
            cache_bytes: 64 << 10,
            fill_percent: 25,
            morsel_rows: 4096,
            threads: 2,
            cuts: Cuts::Whole,
            mem_budget: None,
            disk_budget: None,
            spill: false,
            io_threads: SpillConfig::default().io_threads,
            faults: FaultPlan::none(),
            cancel: Cancel::Never,
            neighbours: 0,
            victims: false,
            door: Door::OneShot,
        }
    }
}

impl Scenario {
    /// The keys, and one value column per input the specs read.
    fn input(&self) -> (Vec<u64>, Vec<Vec<u64>>) {
        let (n, k) = (self.n, self.k.max(1));
        let mut rng = SplitMix64::new(self.seed);
        let hash = |key: u64| digit(Murmur2::default().hash_u64(key), 0);
        let keys = match self.keys {
            Keys::Data(d) => generate(d, n, k, self.seed),
            Keys::Wide => (0..n).map(|_| rng.next_u64()).collect(),
            Keys::Extremes => (0..n)
                .map(|_| {
                    [u64::MAX, u64::MAX - 1, 0, rng.next_u64() % k][rng.next_u64() as usize % 4]
                })
                .collect(),
            Keys::Saturated => (0..n as u64).map(|i| u64::MAX - i % k).collect(),
            Keys::Digits(d) => {
                let pool: Vec<u64> = std::iter::repeat_with(|| rng.next_u64())
                    .filter(|&key| hash(key) < d)
                    .take(k as usize)
                    .collect();
                (0..n).map(|_| pool[(rng.next_u64() % k) as usize]).collect()
            }
            Keys::SealBurst => {
                let mut keys: Vec<u64> =
                    (0..n as u64).map(|i| i.wrapping_mul(2654435761) % k).collect();
                let crowd = (k..).filter(|&key| hash(key) == 0).take(16);
                for (slot, key) in keys[n.saturating_sub(64)..].iter_mut().step_by(2).zip(crowd) {
                    *slot = key;
                }
                keys
            }
        };
        let inputs = self.specs.iter().filter_map(|s| s.input).max().map_or(0, |j| j + 1);
        let edges = [0, 1, u64::MAX - 1, u64::MAX];
        let mut value = || match (self.keys, rng.next_u64()) {
            (Keys::Extremes, r) => edges.get(r as usize % 5).copied().unwrap_or(r),
            (_, r) => r,
        };
        let cols = (0..inputs).map(|_| (0..n).map(|_| value()).collect()).collect();
        (keys, cols)
    }

    fn config(&self) -> AggregateConfig {
        AggregateConfig {
            cache_bytes: self.cache_bytes,
            threads: self.threads,
            strategy: self.strategy,
            fill_percent: self.fill_percent,
            morsel_rows: self.morsel_rows,
        }
    }

    /// The row ranges of the pushes or partials.
    fn ranges(&self) -> Vec<Range<usize>> {
        let n = self.n;
        match self.cuts {
            Cuts::Whole => std::iter::once(0..n).collect(),
            Cuts::Every(rows) => {
                (0..n.max(1)).step_by(rows.max(1)).map(|a| a..(a + rows).min(n)).collect()
            }
            Cuts::Random => {
                let mut rng = SplitMix64::new(!self.seed);
                let (mut cuts, mut at): (Vec<_>, _) = (std::iter::once(0..0).collect(), 0);
                while at < n {
                    let r = rng.next_u64();
                    let len =
                        [0, 1, r % 64, r % 10_000, r % 10_000][(r >> 60) as usize % 5] as usize;
                    cuts.push(at..(at + len).min(n));
                    at = cuts.last().map_or(n, |c| c.end);
                }
                cuts
            }
        }
    }

    /// Neighbour `i` of a scenario with neighbours (`0` is the scenario
    /// itself): another seed of the same shape at `1 + i % 3` workers.
    /// With victims, every second one is cancelled by an expired deadline
    /// or half-way through its input.
    fn neighbour(&self, i: usize) -> Scenario {
        let threads = if i == 0 { self.threads } else { 1 + i % 3 };
        let mut s = Scenario { seed: self.seed + i as u64, threads, neighbours: 0, ..self.clone() };
        match (self.victims, i % 4) {
            (true, 1) => s.cancel = Cancel::Deadline,
            (true, 3) => s.faults.cancel_after_rows = Some(self.n as u64 / 2 + 1),
            _ => {}
        }
        s
    }
}

/// What a checked run returned.
pub struct Outcome {
    pub result: Result<Ran, AggError>,
    /// Whether an injected fault fired.
    pub fired: bool,
}

/// A run that finished, or a stream dropped on purpose.
pub struct Ran {
    /// `None` when the stream was abandoned.
    pub out: Option<GroupByOutput>,
    pub stats: OpStats,
    /// The observed doors' report (`OneShot`, `Stream`).
    pub report: Option<RunReport>,
    /// Rows that entered level 0: the input, or the partials' groups.
    pub level0: u64,
    /// Budget bytes and scratch files the abandoned stream held.
    pub held: (u64, usize),
}

/// Run `s` and hold the outcome to every clause; on a violation, shrink
/// the scenario and print the smallest failing one before failing.
pub fn check(s: &Scenario) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| check_unshrunk(s))) {
        Ok(outcome) => outcome,
        Err(panic) => {
            let small =
                shrink(s, |c| catch_unwind(AssertUnwindSafe(|| check_unshrunk(c))).is_err());
            eprintln!("smallest failing scenario, to commit as a named case:\n{}", literal(&small));
            resume_unwind(panic)
        }
    }
}

/// Check `base` with `plan(n)` for n = 1, 2, … until the first ordinal
/// past the run's last injection site, which must run clean. Returns how
/// many ordinals fired.
pub fn sweep(base: &Scenario, plan: impl Fn(u64) -> FaultPlan) -> u64 {
    for n in 1..10_000 {
        let s = Scenario { faults: plan(n), ..base.clone() };
        let outcome = check(&s);
        if !outcome.fired {
            assert!(
                outcome.result.is_ok(),
                "unfired ordinal {n} failed: {:?}",
                outcome.result.err()
            );
            assert!(n > 1, "the sweep never reached an injection site:\n{}", literal(&s));
            return n - 1;
        }
    }
    panic!("the sweep did not terminate:\n{}", literal(base));
}

/// Seeded draws below a bound, for the slices' scenario generators.
pub fn draws(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut rng = SplitMix64::new(seed);
    move |bound| rng.next_u64() % bound.max(1)
}

/// HASHINGONLY, PARTITIONALWAYS at one and two passes, and ADAPTIVE.
pub fn strategies() -> [Strategy; 4] {
    [
        Strategy::HashingOnly,
        Strategy::PartitionAlways { passes: 1 },
        Strategy::PartitionAlways { passes: 2 },
        Strategy::Adaptive(AdaptiveParams::default()),
    ]
}

/// COUNT, SUM, MIN and MAX of input 0.
pub fn four() -> Vec<AggSpec> {
    vec![AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::max(0)]
}

/// `s` as a literal for the `named` module (which imports every enum's
/// variants).
fn literal(s: &Scenario) -> String {
    format!("{s:#?}").replace("specs: [", "specs: vec![")
}

fn check_unshrunk(s: &Scenario) -> Outcome {
    if s.neighbours > 0 {
        return with_neighbours(s);
    }
    let (keys, owned) = s.input();
    let cols: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
    let outcome = run(s, &keys, &cols, true);
    expected_outcome(s, &outcome);
    if let Ok(Ran { out: Some(out), stats, report, level0, .. }) = &outcome.result {
        assert_eq!(finalized(out, &s.specs), *oracle(s, &keys, &cols), "the oracle disagrees");
        exact_size(out);
        if let Some(report) = report {
            one_report(report, out, true);
        }
        accounting(s, out, stats, report.as_ref(), *level0);
        spill_accounting(s, stats);
        let quiet = s.faults == FaultPlan::none() && s.cancel == Cancel::Never;
        if quiet && s.door != Door::Merge && (s.threads == 1 || s.mem_budget.is_none()) {
            twin(s, &keys, &cols, out, stats);
        }
    }
    outcome
}

/// A result as clause 1 compares it: per group, the key and the
/// finalized value of every spec, sorted by key.
type Rows = Vec<(u64, Vec<u64>)>;

/// Clause 1: the finalized value of every spec per group, sorted by key
/// (AVG as the bits of its `f64`).
fn finalized(out: &GroupByOutput, specs: &[AggSpec]) -> Rows {
    let cols: Vec<Vec<u64>> = (0..specs.len())
        .map(|i| {
            out.column_u64(i)
                .unwrap_or_else(|| out.column_f64(i).into_iter().map(f64::to_bits).collect())
        })
        .collect();
    let mut rows: Vec<_> = out
        .keys
        .iter()
        .enumerate()
        .map(|(r, &k)| (k, cols.iter().map(|c| c[r]).collect()))
        .collect();
    rows.sort_unstable_by_key(|r: &(u64, Vec<u64>)| r.0);
    rows
}

/// Whether rows left a table as a run: a seal, or a partitioned row at
/// any level. Only runs take depot chunks.
fn made_runs(st: &OpStats) -> bool {
    st.seals > 0 || st.part_rows_per_level.iter().any(|&rows| rows > 0)
}

/// Clause 1, the result's shape: every column holds exactly its groups,
/// no spare capacity.
fn exact_size(out: &GroupByOutput) {
    for (i, col) in std::iter::once(&out.keys).chain(&out.states).enumerate() {
        assert_eq!((col.len(), col.capacity()), (out.n_groups(), out.n_groups()), "column {i}");
    }
}

/// The reference fold of `s`'s input, the rows its output must equal.
/// One slot per test thread keeps the last input's: a test that checks
/// one input on several rungs (the budget ladder, 2^21 rows on ten)
/// folds it once. The slot is keyed on what defines the input and the
/// specs, and compared by value.
fn oracle(s: &Scenario, keys: &[u64], cols: &[&[u64]]) -> Rc<Rows> {
    thread_local! {
        static LAST: RefCell<Option<(String, Rc<Rows>)>> =
            const { RefCell::new(None) };
    }
    let id = format!("{:?}", (s.keys, s.n, s.k, s.seed, &s.specs));
    if let Some((_, rows)) = LAST.with_borrow(|last| last.clone()).filter(|(at, _)| *at == id) {
        return rows;
    }
    let rows = Rc::new(reference(&s.specs, keys, cols));
    LAST.set(Some((id, Rc::clone(&rows))));
    rows
}

/// The rows a `GROUP BY` of `keys` with `specs` must return, from a
/// `BTreeMap`: every spec folded per key, finalized, sorted by key.
fn reference(specs: &[AggSpec], keys: &[u64], cols: &[&[u64]]) -> Rows {
    let mut groups: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for (row, &key) in keys.iter().enumerate() {
        let fresh = || specs.iter().map(|s| (if s.func == AggFn::Min { u64::MAX } else { 0 }, 0));
        let accs = groups.entry(key).or_insert_with(|| fresh().collect());
        for ((acc, rows), spec) in accs.iter_mut().zip(specs) {
            let v = spec.input.map_or(0, |j| cols[j][row]);
            *acc = match spec.func {
                AggFn::Count => *acc + 1,
                AggFn::Sum | AggFn::Avg => acc.wrapping_add(v),
                AggFn::Min => (*acc).min(v),
                AggFn::Max => (*acc).max(v),
            };
            *rows += 1;
        }
    }
    let fin = |(acc, rows): (u64, u64), spec: &AggSpec| match spec.func {
        AggFn::Avg => (acc as f64 / rows as f64).to_bits(),
        _ => acc,
    };
    groups
        .into_iter()
        .map(|(k, a)| (k, a.into_iter().zip(specs).map(|(a, s)| fin(a, s)).collect()))
        .collect()
}

/// Clause 2: observing a run changes nothing, and a single push is the
/// one-shot call — the rows always, every counter at one worker.
fn twin(s: &Scenario, keys: &[u64], cols: &[&[u64]], out: &GroupByOutput, stats: &OpStats) {
    let single = s.door == Door::Stream && s.ranges().len() == 1;
    let twin = Scenario { door: if single { Door::OneShot } else { s.door }, ..s.clone() };
    let Ok(Ran { out: Some(twin_out), stats: twin_stats, report, .. }) =
        run(&twin, keys, cols, false).result
    else {
        panic!("the unobserved twin failed where the observed run succeeded");
    };
    exact_size(&twin_out);
    if let Some(report) = &report {
        one_report(report, &twin_out, false);
    }
    assert_eq!(twin_out.sorted_rows(), out.sorted_rows(), "the unobserved twin's rows differ");
    let counted = |s: &OpStats| OpStats {
        task_nanos_per_level: Vec::new(),
        overlapped_io_nanos: 0,
        spill_io_wait_nanos: 0,
        ..s.clone()
    };
    if s.threads == 1 {
        assert_eq!(counted(&twin_stats), counted(stats), "the unobserved twin counted differently");
    }
}

/// Clause 3: every row is accounted for once at every level, and the
/// statistics are the sums of what the workers counted.
fn accounting(
    s: &Scenario,
    out: &GroupByOutput,
    st: &OpStats,
    report: Option<&RunReport>,
    level0: u64,
) {
    let at = |v: &[u64], l: usize| v.get(l).copied().unwrap_or(0);
    let entered = at(&st.hash_rows_per_level, 0) + at(&st.part_rows_per_level, 0);
    assert_eq!(entered, level0, "level 0 must consume every row once");
    if s.faults == FaultPlan::none() {
        assert_eq!((st.cancellations, st.contained_panics), (0, 0), "clean run: {st:?}");
    }
    if s.mem_budget.is_none() {
        assert_eq!((st.budget_denials, st.budget_downgrades), (0, 0), "no budget: {st:?}");
    }
    let Some(report) = report else { return };
    assert_eq!((report.rows_in, report.groups_out), (level0, out.n_groups() as u64));
    let metrics = report.metrics.as_ref().expect("the observed run keeps metrics");
    assert_eq!(metrics.workers.len(), s.threads.max(1), "one shard per worker");
    for (c, total) in [
        (LevelCounter::HashRows, &st.hash_rows_per_level),
        (LevelCounter::PartRows, &st.part_rows_per_level),
        (LevelCounter::TaskNanos, &st.task_nanos_per_level),
        (LevelCounter::SpilledRuns, &st.spilled_runs_per_level),
    ] {
        let mut sum = vec![0; total.len()];
        for w in &metrics.workers {
            sum.iter_mut().zip(w.level_counter(c)).for_each(|(s, x)| *s += x);
        }
        assert_eq!(&sum, total, "{c:?}: the shards do not sum to the statistics");
    }
    for (c, total) in [
        (Counter::TablesSealed, st.seals),
        (Counter::RestoredRuns, st.restored_runs),
        (Counter::BudgetDenials, st.budget_denials),
        (Counter::SpilledBytes, st.spilled_bytes),
    ] {
        let sum: u64 = metrics.workers.iter().map(|w| w.counter(c)).sum();
        assert_eq!(sum, total, "{c:?}: the shards do not sum to the statistics");
    }
    let merged = metrics.merged();
    assert_eq!(merged.hist(Hist::SealFillPct).count(), st.seals, "one fill sample per seal");

    // Rows move one level down through seals and partitioning only. A raw
    // row carries the key and the inputs the specs read, a partial the
    // key and every state: 8 bytes each per partitioned row.
    let profile = report.profile.as_ref().expect("the profile rides with metrics");
    let inputs = s.specs.iter().filter_map(|s| s.input).collect::<std::collections::BTreeSet<_>>();
    let raw = 8 * (1 + inputs.len() as u64);
    let partial = 8 * (1 + out.plan().cols.len() as u64);
    let mut part_bytes = 0;
    for l in 0..profile.levels_used() {
        let cell = |l, p| *profile.cell(l, p);
        let (hashed, parted) =
            (cell(l, Phase::HashInsert).rows_in, cell(l, Phase::Partition).rows_in);
        let counted = (at(&st.hash_rows_per_level, l), at(&st.part_rows_per_level, l));
        assert_eq!(
            (hashed, parted),
            counted,
            "level {l}: the profile's rows are not the counters'"
        );
        let bytes = cell(l, Phase::Partition).bytes;
        part_bytes += bytes;
        if l == 0 {
            assert_eq!(bytes, parted * raw, "level 0 partitions raw rows");
            continue;
        }
        let width = parted * raw.min(partial)..=parted * raw.max(partial);
        assert!(width.contains(&bytes), "level {l}: {bytes} B for {parted} rows");
        let from_above = cell(l - 1, Phase::Seal).rows_out + cell(l - 1, Phase::Partition).rows_out;
        let merged_in = cell(l, Phase::GrowMerge).rows_in;
        assert_eq!(hashed + parted + merged_in, from_above, "rows entering level {l}");
    }
    assert_eq!(merged.counter(Counter::PartBytes), part_bytes, "part_bytes is the cells' sum");
}

/// The report's members consumers read by name (`--stats-json` files,
/// serve's `done` lines, `benchmark/`, CI): adding one is compatible, a
/// missing or renamed one needs a `REPORT_VERSION` bump.
const TOP: [&str; 8] = [
    "report_version",
    "query_id",
    "rows_in",
    "groups_out",
    "threads",
    "wall_nanos",
    "rows_per_sec",
    "stats",
];

/// What an observed run adds to [`TOP`].
const SECTIONS: [&str; 3] = ["pool", "metrics", "profile"];

/// An [`OpStats`] field as the report renders it: a number or a list.
type Field = fn(&OpStats) -> Vec<u64>;

/// The `stats` members, each with the field it renders.
const STATS: [(&str, Field); 28] = [
    ("hash_rows_per_level", |s| s.hash_rows_per_level.clone()),
    ("part_rows_per_level", |s| s.part_rows_per_level.clone()),
    ("task_nanos_per_level", |s| s.task_nanos_per_level.clone()),
    ("passes_used", |s| vec![s.passes_used() as u64]),
    ("seals", |s| vec![s.seals]),
    ("switches_to_partitioning", |s| vec![s.switches_to_partitioning]),
    ("switches_to_hashing", |s| vec![s.switches_to_hashing]),
    ("fallback_merges", |s| vec![s.fallback_merges]),
    ("budget_denials", |s| vec![s.budget_denials]),
    ("budget_downgrades", |s| vec![s.budget_downgrades]),
    ("budget_high_water_bytes", |s| vec![s.budget_high_water_bytes]),
    ("cancellations", |s| vec![s.cancellations]),
    ("contained_panics", |s| vec![s.contained_panics]),
    ("spilled_runs", |s| vec![s.spilled_runs()]),
    ("spilled_runs_per_level", |s| s.spilled_runs_per_level.clone()),
    ("spilled_bytes", |s| vec![s.spilled_bytes]),
    ("restored_runs", |s| vec![s.restored_runs]),
    ("restored_bytes", |s| vec![s.restored_bytes]),
    ("spill_retries", |s| vec![s.spill_retries]),
    ("restore_retries", |s| vec![s.restore_retries]),
    ("spill_io_abandons", |s| vec![s.spill_io_abandons]),
    ("spill_reclaimed_files", |s| vec![s.spill_reclaimed_files]),
    ("spill_reclaimed_bytes", |s| vec![s.spill_reclaimed_bytes]),
    ("disk_budget_denials", |s| vec![s.disk_budget_denials]),
    ("disk_high_water_bytes", |s| vec![s.disk_high_water_bytes]),
    ("spill_encoded_bytes", |s| vec![s.spill_encoded_bytes]),
    ("overlapped_io_nanos", |s| vec![s.overlapped_io_nanos]),
    ("spill_io_wait_nanos", |s| vec![s.spill_io_wait_nanos]),
];

/// The counters of `metrics.merged` and of every worker, each with the
/// `stats` member it is lowered to (summed over levels), if any.
const COUNTERS: [(&str, &str); 32] = [
    ("morsels_claimed", ""),
    ("tables_sealed", "seals"),
    ("switches_to_partitioning", "switches_to_partitioning"),
    ("switches_to_hashing", "switches_to_hashing"),
    ("fallback_merges", "fallback_merges"),
    ("hash_rows", "hash_rows_per_level"),
    ("part_rows", "part_rows_per_level"),
    ("table_inserts", ""),
    ("probe_steps", ""),
    ("part_bytes", ""),
    ("budget_denials", "budget_denials"),
    ("budget_downgrades", "budget_downgrades"),
    ("cancellations", "cancellations"),
    ("contained_panics", "contained_panics"),
    ("spilled_runs", "spilled_runs_per_level"),
    ("spilled_bytes", "spilled_bytes"),
    ("restored_runs", "restored_runs"),
    ("restored_bytes", "restored_bytes"),
    ("spill_retries", "spill_retries"),
    ("restore_retries", "restore_retries"),
    ("spill_abandons", "spill_io_abandons"),
    ("spill_reclaimed_files", "spill_reclaimed_files"),
    ("spill_reclaimed_bytes", "spill_reclaimed_bytes"),
    ("disk_budget_denials", "disk_budget_denials"),
    ("spill_encoded_bytes", "spill_encoded_bytes"),
    ("overlapped_io_nanos", "overlapped_io_nanos"),
    ("spill_io_wait_nanos", "spill_io_wait_nanos"),
    ("task_nanos", "task_nanos_per_level"),
    ("depot_hits", ""),
    ("depot_fresh", ""),
    ("depot_lent_high_water_bytes", ""),
    ("minor_faults", ""),
];

/// The deep cells beside the counters: the histograms, the phase cells and
/// the per-switch α.
const DEEP: [&str; 11] = [
    "probe_len",
    "block_displacement",
    "seal_fill_pct",
    "morsel_rows",
    "partition_skew_pct",
    "spill_nanos",
    "restore_nanos",
    "phases",
    "alphas",
    "alpha_count",
    "alpha_sum",
];

/// Clause 8: the report is one record. Its JSON parses back with every
/// member consumers read by name; `stats` renders each statistic,
/// `metrics.merged` holds the counter each is lowered from and the
/// workers' shards sum to it, as the pool's slots sum to its totals; the
/// result is `groups_out` rows written in place, lent no depot chunk; one
/// fill sample per seal; the profile's spill and restore bytes, budget
/// high water and overlap are the statistics' own; and per level, the
/// rows the Spill cell wrote are the rows the Restore cell read back. A run that was
/// not observed carries no `metrics`, `pool`, `profile` or trace.
fn one_report(report: &RunReport, out: &GroupByOutput, observed: bool) {
    let sorted = |names: &[&[&'static str]]| {
        let mut all = names.concat();
        all.sort_unstable();
        all
    };
    let json = parse(&report.to_json().to_string_compact()).expect("the report parses back");
    let sections: &[&str] = if observed { &SECTIONS } else { &[] };
    assert_eq!(
        names(&json),
        sorted(&[&TOP, sections]),
        "the report's members (observed {observed})"
    );
    assert_eq!(u64s(member(&json, "report_version")), [4], "a new report_version");
    let st = &report.stats;
    for (k, v) in [
        ("query_id", report.query_id),
        ("rows_in", report.rows_in),
        ("groups_out", report.groups_out),
        ("wall_nanos", report.wall_nanos),
    ] {
        assert_eq!(u64s(member(&json, k)), [v], "{k} is not the report's");
    }
    // The result is written once, into the caller's vectors: exactly
    // `groups_out` rows (each caller checks every column's `exact_size`).
    assert_eq!(out.n_groups() as u64, report.groups_out, "the result is not groups_out long");
    let stats = member(&json, "stats");
    assert_eq!(names(stats), sorted(&[&STATS.map(|(k, _)| k)]), "the stats members");
    for (k, field) in STATS {
        assert_eq!(u64s(member(stats, k)), field(st), "stats.{k} is not its field");
    }
    if !observed {
        let deep = (&report.metrics, &report.pool, &report.profile, &report.trace_json);
        assert!(matches!(deep, (None, None, None, None)), "unobserved, yet {deep:?}");
        return;
    }
    assert!(report.trace_json.is_none(), "a trace nobody asked for");
    let metrics = member(&json, "metrics");
    let merged = member(metrics, "merged");
    let workers = member(metrics, "workers").as_array().expect("metrics.workers is a list");
    assert_eq!(workers.len(), report.threads, "one shard per worker");
    let cells = sorted(&[&COUNTERS.map(|(k, _)| k), &DEEP]);
    for shard in workers.iter().chain([merged]) {
        assert_eq!(names(shard), cells, "the metrics cells");
    }
    for (counter, stat) in COUNTERS {
        let total = u64s(member(merged, counter));
        let shards: u64 = workers.iter().map(|w| u64s(member(w, counter))[0]).sum();
        assert_eq!(total, [shards], "{counter}: the workers do not sum to metrics.merged");
        if !stat.is_empty() {
            let lowered: u64 = u64s(member(stats, stat)).iter().sum();
            assert_eq!(total, [lowered], "metrics.merged.{counter} is not stats.{stat}");
        }
    }
    // No depot chunk is lent for the output: only runs take chunks, so a
    // query whose rows never left level 0 lends none.
    let lent = ["depot_hits", "depot_fresh", "depot_lent_high_water_bytes"]
        .map(|counter| u64s(member(merged, counter))[0]);
    assert!(made_runs(st) || lent == [0; 3], "a chunk lent without a run: {lent:?}");
    let fills = u64s(member(member(merged, "seal_fill_pct"), "count"));
    assert_eq!(fills, [st.seals], "one seal_fill_pct sample per seal");
    let pool = member(&json, "pool");
    let slots = member(pool, "workers").as_array().expect("pool.workers is a list");
    for k in ["tasks_executed", "steals", "failed_steal_scans", "idle_nanos"] {
        let sum: u64 = slots.iter().map(|w| u64s(member(w, k))[0]).sum();
        assert_eq!(u64s(member(member(pool, "totals"), k)), [sum], "pool.totals.{k}");
    }
    let profile = member(&json, "profile");
    let (mut spill, mut restore) = (0, 0);
    for level in member(profile, "levels").as_array().expect("profile.levels is a list") {
        let phases = member(level, "phases");
        let field = |phase, k| phases.get(phase).map_or(0, |cell| u64s(member(cell, k))[0]);
        (spill, restore) = (spill + field("spill", "bytes"), restore + field("restore", "bytes"));
        let rows = (field("spill", "rows_in"), field("restore", "rows_out"));
        assert_eq!(rows.0, rows.1, "rows spilled and restored at {:?}", member(level, "level"));
    }
    assert_eq!((spill, restore), (st.spilled_bytes, st.restored_bytes), "the profile's I/O bytes");
    for (k, stat) in [
        ("budget_high_water_bytes", st.budget_high_water_bytes),
        ("overlapped_io_nanos", st.overlapped_io_nanos),
        ("wall_nanos", report.wall_nanos),
        ("threads", report.threads as u64),
    ] {
        assert_eq!(u64s(member(profile, k)), [stat], "profile.{k} is not the report's");
    }
    let fraction = report.profile.as_ref().map(|p| p.overlap_fraction());
    assert_eq!(member(profile, "spill_overlap_fraction").as_f64(), fraction, "the overlap");
}

/// Member `k` of a JSON object.
fn member<'a>(v: &'a JsonValue, k: &str) -> &'a JsonValue {
    v.get(k).unwrap_or_else(|| panic!("no member {k:?}"))
}

/// A number, or a list of them.
fn u64s(v: &JsonValue) -> Vec<u64> {
    let all = v.as_array().map_or_else(|| vec![v], |items| items.iter().collect());
    all.into_iter().map(|x| x.as_u64().unwrap_or_else(|| panic!("{x:?} is not a u64"))).collect()
}

/// An object's member names, sorted.
fn names(v: &JsonValue) -> Vec<&str> {
    let JsonValue::Object(pairs) = v else { panic!("not an object: {v:?}") };
    let mut names: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    names.sort_unstable();
    names
}

/// Clause 7, with the budgets' bounds: what spills comes back, byte for
/// byte, and the synchronous store overlaps nothing.
fn spill_accounting(s: &Scenario, st: &OpStats) {
    assert_eq!(st.restored_runs, st.spilled_runs(), "every spilled run is read back");
    assert_eq!(st.restored_bytes, st.spilled_bytes, "bytes spilled equal bytes restored");
    assert!(st.spill_encoded_bytes <= st.spilled_bytes, "encoding above the reserved bound");
    assert!(s.spill || st.spilled_runs() == 0, "spilled without a spill directory");
    if s.io_threads == 0 {
        assert_eq!((st.overlapped_io_nanos, st.spill_io_wait_nanos), (0, 0), "sync I/O overlapped");
    }
    if let Some(limit) = s.mem_budget {
        assert!(st.budget_high_water_bytes <= limit, "high water above the budget: {st:?}");
    }
}

/// Clause 6: the outcome is the one the scenario injects. A transient
/// spill fault ends in the exact answer with its retry counted; a
/// permanent one, an injected denial, panic, failed spill or cancel ends
/// in its typed error; a real denial names the scenario's own limit; and
/// nothing planned to fail succeeds.
fn expected_outcome(s: &Scenario, o: &Outcome) {
    let f = &s.faults;
    let io = f.spill_io.filter(|_| o.fired);
    let bad_spec = s.specs.iter().position(|sp| sp.input.is_none() && sp.func != AggFn::Count);
    let e = match &o.result {
        Err(e) => e,
        Ok(ran) => {
            let planned =
                bad_spec.is_some() || matches!(s.cancel, Cancel::Requested | Cancel::Deadline);
            assert!(!planned, "a run planned to fail succeeded");
            assert!(f.cancel_after_rows.is_none_or(|k| k > s.n as u64), "the cancel was ignored");
            if let Some(fault) = io {
                assert!(fault.kind.is_transient(), "{fault:?} fired and the run succeeded");
                let st = &ran.stats;
                let retries =
                    if fault.kind.is_write() { st.spill_retries } else { st.restore_retries };
                assert!(retries >= 1 && st.spill_io_abandons == 0, "{fault:?} not retried: {st:?}");
            }
            return;
        }
    };
    let injected = |m: &str| m.contains("injected fault");
    let permanent =
        |write: bool| io.is_some_and(|f| f.kind.is_write() == write && !f.kind.is_transient());
    let expected = match e {
        AggError::BudgetExceeded { limit: 0, .. } => f.fail_alloc.is_some(),
        AggError::BudgetExceeded { limit, .. } => s.mem_budget == Some(*limit),
        AggError::DiskBudgetExceeded { limit, .. } => s.disk_budget == Some(*limit),
        AggError::WorkerPanic { message } => f.panic_in_task.is_some() && injected(message),
        AggError::SpillFailed { message } => {
            f.fail_spill.is_some() && injected(message) || permanent(true)
        }
        AggError::SpillCorrupt { .. } => permanent(false),
        AggError::Cancelled(CancelReason::DeadlineExceeded) => s.cancel == Cancel::Deadline,
        AggError::Cancelled(CancelReason::Requested) => {
            matches!(s.cancel, Cancel::Requested | Cancel::OnFirstFault)
                || f.cancel_after_rows.is_some()
        }
        AggError::SpecNeedsInput { spec } => bad_spec == Some(*spec),
        _ => false,
    };
    assert!(expected, "{e:?} is not what the scenario injects");
}

/// One run through the scenario's door under a fresh environment;
/// afterwards, whatever the outcome, both budgets must be drained and no
/// query may have closed its depot account with a chunk still lent
/// (clause 4), and the spill directory must be empty (clause 5).
fn run(s: &Scenario, keys: &[u64], cols: &[&[u64]], metrics: bool) -> Outcome {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    // ORDERING: Relaxed — a unique-name counter, nothing is published.
    let id = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hsa-scenario-{}-{id}", std::process::id()));
    if s.faults.panic_in_task.is_some() {
        quiet_injected_panics();
    }
    let budget = s.mem_budget.map_or_else(MemoryBudget::unlimited, MemoryBudget::limited);
    let disk = s.disk_budget.map_or_else(DiskBudget::unlimited, DiskBudget::limited);
    let faults = FaultInjector::new(s.faults.clone());
    let cancel = match s.cancel {
        Cancel::Never => CancelToken::none(),
        Cancel::Deadline => CancelToken::with_timeout(Duration::ZERO),
        Cancel::Requested | Cancel::OnFirstFault => CancelToken::new(),
    };
    if s.cancel == Cancel::Requested {
        cancel.cancel();
    }
    let env = ExecEnv {
        budget: budget.clone(),
        cancel: cancel.clone(),
        faults: faults.clone(),
        spill_dir: s.spill.then(|| dir.clone()),
        disk: disk.clone(),
        spill: SpillConfig { io_threads: s.io_threads },
    };
    let done = AtomicBool::new(false);
    let result = std::thread::scope(|t| {
        if s.cancel == Cancel::OnFirstFault {
            t.spawn(|| {
                // ORDERING: Relaxed — a stop flag; the scope's join orders the rest.
                while faults.spill_io_fired() == 0 && !done.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                cancel.cancel();
            });
        }
        let result = through_door(s, keys, cols, &env, metrics, &dir);
        // ORDERING: Relaxed — see above.
        done.store(true, Ordering::Relaxed);
        result
    });
    assert_eq!(budget.outstanding(), 0, "memory reservations leaked");
    assert_eq!(disk.outstanding(), 0, "disk reservations leaked");
    assert_eq!(depot::unbalanced_closes(), 0, "a query closed with depot chunks still lent");
    assert_eq!(scratch(&dir), Vec::<String>::new(), "scratch files leaked");
    let _ = std::fs::remove_dir_all(&dir);
    let injected = |e: &AggError| match e {
        AggError::BudgetExceeded { limit, .. } => *limit == 0,
        AggError::WorkerPanic { message } | AggError::SpillFailed { message } => {
            message.contains("injected fault")
        }
        _ => false,
    };
    let fired = faults.spill_io_fired() > 0 || result.as_ref().err().is_some_and(injected);
    Outcome { result, fired }
}

fn through_door(
    s: &Scenario,
    keys: &[u64],
    cols: &[&[u64]],
    env: &ExecEnv,
    metrics: bool,
    dir: &Path,
) -> Result<Ran, AggError> {
    let cfg = s.config();
    let obs = ObsConfig { metrics, ..ObsConfig::disabled() };
    let level0 = keys.len() as u64;
    let pick = |r: &Range<usize>| cols.iter().map(|c| &c[r.clone()]).collect::<Vec<_>>();
    let ran = |(out, report): (GroupByOutput, RunReport)| Ran {
        stats: report.stats.clone(),
        out: Some(out),
        report: Some(report),
        level0,
        held: (0, 0),
    };
    match s.door {
        Door::OneShot => try_aggregate_observed(keys, cols, &s.specs, &cfg, env, &obs).map(ran),
        Door::Stream | Door::Abandon => {
            let mut stream = AggStream::new(&s.specs, &cfg, env, &obs)?;
            let cuts = s.ranges();
            let pushes = if s.door == Door::Abandon { cuts.len() / 2 } else { cuts.len() };
            for r in &cuts[..pushes] {
                stream.push(&keys[r.clone()], &pick(r))?;
            }
            if s.door == Door::Stream {
                assert_eq!(stream.rows_pushed(), level0, "rows_pushed is every pushed row");
                return stream.finish().map(ran);
            }
            let bins = scratch(dir).iter().filter(|f| f.ends_with(".bin")).count();
            let held = (env.budget.outstanding(), bins);
            drop(stream);
            let stats = OpStats::default();
            Ok(Ran { out: None, stats, report: None, level0, held })
        }
        Door::Merge => {
            let partials = s
                .ranges()
                .iter()
                .map(|r| {
                    try_aggregate(&keys[r.clone()], &pick(r), &s.specs, &cfg, env).map(|p| p.0)
                })
                .collect::<Result<Vec<_>, _>>()?;
            let level0 = partials.iter().map(|p| p.n_groups() as u64).sum();
            let refs: Vec<&GroupByOutput> = partials.iter().collect();
            let (out, stats) = try_merge_partials(&refs, &s.specs, &cfg, env)?;
            Ok(Ran { out: Some(out), stats, report: None, level0, held: (0, 0) })
        }
    }
}

/// Run the scenario and its neighbours at once; the survivors are checked
/// like solo runs, and every query in flight has its own id.
fn with_neighbours(s: &Scenario) -> Outcome {
    let all: Vec<Scenario> = (0..=s.neighbours).map(|i| s.neighbour(i)).collect();
    let barrier = Barrier::new(all.len());
    let mut outcomes: Vec<Outcome> = std::thread::scope(|t| {
        let runs: Vec<_> = all
            .iter()
            .map(|n| {
                let barrier = &barrier;
                t.spawn(move || {
                    barrier.wait();
                    check_unshrunk(n)
                })
            })
            .collect();
        runs.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect()
    });
    let ok = outcomes.iter().filter_map(|o| o.result.as_ref().ok());
    let mut ids: Vec<u64> = ok.filter_map(|r| r.report.as_ref().map(|r| r.query_id)).collect();
    let live = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), live, "two queries in flight shared an id");
    outcomes.swap_remove(0)
}

/// The smallest scenario `fails` still holds for, halving one dimension
/// at a time.
fn shrink(s: &Scenario, fails: impl Fn(&Scenario) -> bool) -> Scenario {
    let mut s = s.clone();
    loop {
        let with = |f: &dyn Fn(&mut Scenario)| {
            let mut c = s.clone();
            f(&mut c);
            c
        };
        let mut smaller = Vec::new();
        if s.n > 1 {
            smaller.push(with(&|c| c.n /= 2));
        }
        if s.k > 1 {
            smaller.push(with(&|c| c.k /= 2));
        }
        if s.threads > 1 {
            smaller.push(with(&|c| c.threads /= 2));
        }
        if s.neighbours > 0 {
            smaller.push(with(&|c| c.neighbours /= 2));
        }
        if s.specs.len() > 1 {
            smaller.push(with(&|c| c.specs.truncate(c.specs.len() / 2)));
        }
        if matches!(s.cuts, Cuts::Every(rows) if rows < s.n) {
            smaller.push(with(&|c| c.cuts = Cuts::Every(2 * c.ranges()[0].len())));
        }
        match smaller.into_iter().find(|c| fails(c)) {
            Some(c) => s = c,
            None => return s,
        }
    }
}

/// The names left in a scratch directory.
fn scratch(dir: &Path) -> Vec<String> {
    let names = std::fs::read_dir(dir).into_iter().flatten().flatten();
    names.map(|e| e.file_name().to_string_lossy().into_owned()).collect()
}

/// Injected task panics are expected: keep them off stderr, and let every
/// other panic through.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload.downcast_ref::<&str>().copied();
            let msg = msg.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !msg.is_some_and(|m| m.contains("injected fault")) {
                default(info);
            }
        }));
    });
}
