//! One run of one workload: set-up, warm-up, the timed window, the checks,
//! and — on a traced run — the span log, the ledger and the layer replays.
//!
//! Every workload is a closed loop: a client sends its next query only
//! after the previous one completed.

use crate::ledger::{metric, Ledger, Metric};
use crate::lib_door::LibDoor;
use crate::serve_door::ServeDoor;
use crate::spans::{child_coverage, trace_json, SpanLog};
use crate::stats::{median, median_of, percentile, sort};
use crate::workloads::{Door as DoorKind, Input, Workload};
use crate::{host, layers};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Untimed warm-up before a window: this share of the run, at most 3 s.
const WARMUP_SHARE: f64 = 0.15;
const WARMUP_MAX_S: f64 = 3.0;
/// A traced run splits its `--seconds`: an untraced reference window, the
/// traced window, and the calibration loop; the replays take the rest.
const TRACED_REFERENCE_SHARE: f64 = 0.25;
const TRACED_WINDOW_SHARE: f64 = 0.5;
const CALIBRATION_SHARE: f64 = 0.1;

/// What one window of back-to-back queries measured.
pub struct Window {
    /// Wall time of every completed, correct query, in nanoseconds.
    pub query_ns: Vec<f64>,
    pub rows_per_query: u64,
    /// From the first query's start until the last one completed.
    pub wall_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Door spans of a traced window.
    pub spans: Option<SpanLog>,
    pub ledger: Ledger,
}

impl Window {
    pub fn new(rows_per_query: u64) -> Self {
        Self {
            query_ns: Vec::new(),
            rows_per_query,
            wall_ns: 0,
            attempted: 0,
            failed: 0,
            spans: None,
            ledger: Ledger::default(),
        }
    }

    /// Count a failed query; the first few are explained on stderr.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("[benchmark] failed query: {why}");
        }
    }

    /// The window's query-time distribution on stderr, with the share of
    /// CPU time the hypervisor took since `before`: whether a slow run was
    /// slow throughout (host drift), in its tail (stalls), or robbed.
    fn describe(&self, before: Option<(u64, u64)>) {
        let stolen = match (before, host::cpu_jiffies()) {
            (Some((all0, steal0)), Some((all1, steal1))) if all1 > all0 => {
                (steal1 - steal0) as f64 / (all1 - all0) as f64
            }
            _ => 0.0,
        };
        let mut ms: Vec<f64> = self.query_ns.iter().map(|ns| ns / 1e6).collect();
        sort(&mut ms);
        let at = |p: f64| ms[((p / 100.0 * ms.len() as f64) as usize).min(ms.len() - 1)];
        if !ms.is_empty() {
            eprintln!(
                "[benchmark] {} queries in {:.2} s; query ms min {:.3} p25 {:.3} p50 {:.3} p75 {:.3} max {:.3}; host steal {:.1} %",
                ms.len(),
                self.wall_ns as f64 / 1e9,
                ms[0],
                at(25.0),
                at(50.0),
                at(75.0),
                ms[ms.len() - 1],
                stolen * 100.0,
            );
        }
    }

    /// Median query time per input row.
    pub fn row_ns(&self) -> f64 {
        let mut per_row: Vec<f64> =
            self.query_ns.iter().map(|ns| ns / self.rows_per_query as f64).collect();
        sort(&mut per_row);
        median(&per_row)
    }
}

/// A front door with its inputs, ready to answer queries.
pub trait Door {
    /// The first query after opening, checked like any other.
    fn first_query(&mut self) -> Result<(), String>;
    /// Back-to-back queries until `length` has passed; every output is
    /// checked outside its timed span.
    fn run_window(&mut self, length: Duration, traced: bool) -> Window;
    /// After the memory reading: the oracle comparison of each client's
    /// last query. Returns the problems.
    fn verify(&mut self) -> Vec<String>;
    /// Scratch and budget hygiene once the last query is done: nothing
    /// leaked, nothing still reserved. Returns the problems.
    fn close(self: Box<Self>) -> Vec<String>;
    /// The input the layer replays run on.
    fn replay_input(&self) -> &Input;
}

pub struct RunOptions<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// `benchmark/out`.
    pub out_dir: &'a Path,
}

/// The result of one run, as the contract's last line reports it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The run's scratch directory; `suffix` separates the replay's store.
pub fn scratch_dir(opts: &RunOptions, suffix: &str) -> PathBuf {
    opts.out_dir.join(format!("scratch-{}{suffix}", std::process::id()))
}

fn open_door(opts: &RunOptions) -> Result<Box<dyn Door>, String> {
    let scratch = scratch_dir(opts, "");
    let mut door: Box<dyn Door> = match opts.workload.door {
        DoorKind::Serve => Box::new(ServeDoor::open(opts.workload, opts.smoke, opts.seed)?),
        _ => Box::new(LibDoor::open(opts.workload, opts.smoke, opts.seed, scratch)?),
    };
    door.first_query()?;
    Ok(door)
}

/// Set up [`SETUP_REPEATS`] times — generate the inputs, open the door,
/// answer one query — and keep the last door. Returns the median time.
fn set_up(opts: &RunOptions, repeats: usize) -> Result<(Box<dyn Door>, f64, u64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut door = None;
    for _ in 0..repeats {
        // The previous door goes first, so that peak memory holds one.
        if let Some(old) = door.take() {
            let problems = Door::close(old);
            if !problems.is_empty() {
                return Err(format!("set-up repeat left problems: {problems:?}"));
            }
        }
        let start = Instant::now();
        door = Some(open_door(opts)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let n = times.len() as u64;
    Ok((door.expect("at least one set-up"), median_of(times), n))
}

pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let outcome = run_checked(opts);
    if outcome.is_err() {
        // A run that stops early still leaves no scratch behind.
        for suffix in ["", "-replay"] {
            let _ = std::fs::remove_dir_all(scratch_dir(opts, suffix));
        }
    }
    outcome
}

fn run_checked(opts: &RunOptions) -> Result<Outcome, String> {
    let repeats = if opts.traced { 1 } else { SETUP_REPEATS };
    let (mut door, setup_s, setup_n) = set_up(opts, repeats)?;
    host::reset_peak_rss();
    let jiffies = host::cpu_jiffies();
    let warmup = (opts.seconds * WARMUP_SHARE).min(WARMUP_MAX_S);
    let warm = door.run_window(Duration::from_secs_f64(warmup), false);
    let mut failed = warm.failed;

    let (window, mut metrics) = if opts.traced {
        let reference =
            door.run_window(Duration::from_secs_f64(opts.seconds * TRACED_REFERENCE_SHARE), false);
        let traced =
            door.run_window(Duration::from_secs_f64(opts.seconds * TRACED_WINDOW_SHARE), true);
        failed += reference.failed;
        let mut metrics = traced_metrics(opts, &reference, &traced)?;
        let calibration = Duration::from_secs_f64(opts.seconds * CALIBRATION_SHARE);
        metrics.extend(layers::replay(opts, door.replay_input(), &traced.ledger, calibration)?);
        (traced, metrics)
    } else {
        let window = door.run_window(Duration::from_secs_f64(opts.seconds), false);
        let peak_rss = host::peak_rss_mib()?;
        let n = window.query_ns.len() as u64;
        let rows = n * window.rows_per_query;
        let metrics = vec![
            metric("setup_s", setup_s, setup_n),
            metric("row_ns", window.row_ns(), n),
            metric("rows_per_s", rows as f64 * 1e9 / window.wall_ns.max(1) as f64, n),
            metric("peak_rss_mib", peak_rss, 1),
        ];
        (window, metrics)
    };
    failed += window.failed;
    window.describe(jiffies);

    // Only now, after the memory reading, is the oracle built.
    let mut problems = door.verify();
    problems.extend(door.close());
    for p in &problems {
        eprintln!("[benchmark] check failed: {p}");
    }
    failed += problems.len() as u64;
    if window.query_ns.is_empty() {
        return Err("no query completed inside the window".into());
    }
    fill_missing(&mut metrics, opts.traced);
    Ok(Outcome { correct: failed == 0, attempted: window.attempted, failed, metrics })
}

/// Door-span metrics and the traced-versus-untraced comparison; writes
/// `trace-<workload>.json`.
fn traced_metrics(
    opts: &RunOptions,
    reference: &Window,
    traced: &Window,
) -> Result<Vec<Metric>, String> {
    let log = traced.spans.as_ref().expect("a traced window keeps its spans");
    let spans = log.spans();
    let path = opts.out_dir.join(format!("trace-{}.json", opts.workload.name));
    std::fs::write(&path, trace_json(opts.workload.name, spans).to_string_compact())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let rows = traced.rows_per_query as f64;
    let named = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.nanos() as f64).collect()
    };
    let total = |name: &str| named(name).iter().sum::<f64>();
    let queries = named("query").len() as f64;
    let per_row = |name: &'static str, span: &str| {
        let n = named(span).len() as u64;
        metric(name, if queries > 0.0 { total(span) / (queries * rows) } else { 0.0 }, n)
    };
    let median_in = |name: &'static str, span: &str, unit_ns: f64| {
        let samples = named(span);
        let n = samples.len() as u64;
        metric(name, median_of(samples) / unit_ns, n)
    };

    // Tail percentiles take the traced window's "query" spans: it is the
    // longer window, and the one a percentile's sample count can support.
    let mut query_ms: Vec<f64> = named("query").iter().map(|ns| ns / 1e6).collect();
    sort(&mut query_ms);
    let tail = |name: &'static str, p: f64| {
        metric(name, percentile(&query_ms, p).unwrap_or(0.0), query_ms.len() as u64)
    };
    let n = reference.query_ns.len() as u64;
    let mut per_row_ns: Vec<f64> = reference.query_ns.iter().map(|ns| ns / rows).collect();
    sort(&mut per_row_ns);
    let overhead = traced.row_ns() / reference.row_ns() - 1.0;

    let mut metrics = traced.ledger.metrics();
    metrics.extend([
        metric("bench.trace_overhead_share", overhead, traced.query_ns.len() as u64),
        metric("bench.row_ns_p10", percentile(&per_row_ns, 10.0).unwrap_or(0.0), n),
        metric("bench.door_span_coverage", child_coverage(spans, "query"), queries as u64),
    ]);
    match opts.workload.door {
        DoorKind::Serve => metrics.extend([
            median_in("cli.serve.submit_us", "cli.serve.submit", 1e3),
            per_row("cli.serve.rows_ns_per_row", "cli.serve.rows"),
            median_in("cli.serve.finish_ms", "cli.serve.finish", 1e6),
            median_in("cli.serve.first_block_ms", "cli.serve.first_block", 1e6),
            tail("cli.serve.query_p95_ms", 95.0),
            tail("cli.serve.query_p99_ms", 99.0),
        ]),
        _ => metrics.extend([
            median_in("core.stream.new_us", "core.stream.new", 1e3),
            per_row("core.stream.push_ns_per_row", "core.stream.push"),
            per_row("core.stream.finish_ns_per_row", "core.stream.finish"),
        ]),
    }
    Ok(metrics)
}

/// Every run reports its whole table: a metric a workload has nothing to
/// say about (a layer that does no work there) reads 0 with `n = 0`.
fn fill_missing(metrics: &mut Vec<Metric>, traced: bool) {
    let table = if traced { crate::spec::PER_LAYER } else { crate::spec::END_TO_END };
    let mut ordered = Vec::with_capacity(table.len());
    for def in table {
        let found = metrics.iter().position(|m| m.name == def.name);
        ordered.push(found.map_or(metric(def.name, 0.0, 0), |i| metrics.swap_remove(i)));
    }
    assert!(metrics.is_empty(), "metrics outside the table: {metrics:?}");
    *metrics = ordered;
}
