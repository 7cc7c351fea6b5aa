//! Structured run reports: everything one operator invocation can tell
//! about itself, in one machine-readable value.
//!
//! [`RunReport`] carries the views of the query's recorder cells — the
//! always-present [`OpStats`], and with `metrics` on the per-worker
//! [`hsa_obs::MetricsSnapshot`] and the [`ProfileTree`] — beside the
//! scheduler counters ([`hsa_tasks::PoolMetrics`]) and the rendered
//! Chrome trace. It serializes to JSON with the dependency-free writer in
//! `hsa_obs::json` and pretty-prints for the CLI's `--stats`.

use crate::stats::OpStats;
use hsa_obs::json::JsonValue;
use hsa_obs::{Counter, Hist, MetricsSnapshot, ProfileTree, WorkerSnapshot};
use hsa_tasks::{PoolMetrics, WorkerPoolMetrics};

/// Version of the [`RunReport::to_json`] schema, emitted as
/// `report_version`. Stability contract (see DESIGN.md §8): adding new
/// members does **not** bump this — consumers must ignore unknown keys;
/// renaming, removing, or reinterpreting an existing member does.
///
/// History: v2 added `query_id` and reinterpreted a report as the record
/// of one admitted query on the shared runtime (ids are unique per
/// process, so two reports from one serving process never collide); v3
/// removed the `swc_flushes` / `swc_flush_bytes` counters with the
/// write-combining lines they counted (`part_bytes` is what the
/// partitioning passes wrote); v4 removed the top-level `kernel` member
/// and the `kernel_batched_rows` / `kernel_scalar_rows` stats with the
/// second kernel path (`hash_rows_per_level` counts the hashed rows).
pub const REPORT_VERSION: u64 = 4;

/// What the observed operator entry points should collect.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Collect the deep per-worker metrics (probe-length and fill
    /// histograms, per-switch α, phase attribution, scheduler counters)
    /// and return the per-worker counters beside the [`OpStats`] totals.
    pub metrics: bool,
    /// Record the task timeline (Chrome trace events), up to
    /// [`hsa_obs::DEFAULT_TRACE_CAPACITY`] events per worker; further
    /// events are counted as dropped.
    pub trace: bool,
    /// Emit a live progress heartbeat to stderr at this interval (the
    /// CLI's `--progress <ms>`). Runs a background sampler thread that
    /// reads the query's recorder while it runs, and works with or without
    /// `metrics`.
    pub progress: Option<std::time::Duration>,
}

impl ObsConfig {
    /// Collect nothing beyond the counters [`OpStats`] is lowered from.
    pub fn disabled() -> Self {
        Self { metrics: false, trace: false, progress: None }
    }

    /// Collect everything (except the progress heartbeat, which is
    /// output, not collection).
    pub fn full() -> Self {
        Self { metrics: true, trace: true, ..Self::disabled() }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The full observability record of one operator invocation.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The runtime's id for this query: every invocation is admitted to
    /// the shared worker runtime as one query, and all of its work,
    /// heartbeat lines, and this report carry the same id. Unique within
    /// the process.
    pub query_id: u64,
    /// Input rows.
    pub rows_in: u64,
    /// Output groups.
    pub groups_out: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock duration of the whole invocation.
    pub wall_nanos: u64,
    /// The always-present statistics, lowered from the merged counters.
    pub stats: OpStats,
    /// Scheduler counters (None when deep metrics were off).
    pub pool: Option<PoolMetrics>,
    /// Deep per-worker metrics (None when off).
    pub metrics: Option<MetricsSnapshot>,
    /// The EXPLAIN ANALYZE phase tree (None when deep metrics were off).
    pub profile: Option<ProfileTree>,
    /// Rendered Chrome trace JSON (None when tracing was off).
    pub trace_json: Option<String>,
}

impl RunReport {
    /// Rows per second over the wall clock.
    pub fn rows_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.rows_in as f64 * 1e9 / self.wall_nanos as f64
    }

    /// JSON form of the report (the trace is excluded — it is a separate
    /// artifact with its own format).
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("report_version".to_string(), JsonValue::U64(REPORT_VERSION)),
            ("query_id".to_string(), JsonValue::U64(self.query_id)),
            ("rows_in".to_string(), JsonValue::U64(self.rows_in)),
            ("groups_out".to_string(), JsonValue::U64(self.groups_out)),
            ("threads".to_string(), JsonValue::U64(self.threads as u64)),
            ("wall_nanos".to_string(), JsonValue::U64(self.wall_nanos)),
            ("rows_per_sec".to_string(), JsonValue::F64(self.rows_per_sec())),
            ("stats".to_string(), stats_json(&self.stats)),
        ];
        if let Some(pool) = &self.pool {
            pairs.push(("pool".to_string(), pool_json(pool)));
        }
        if let Some(metrics) = &self.metrics {
            pairs.push(("metrics".to_string(), metrics.to_json()));
        }
        if let Some(profile) = &self.profile {
            pairs.push(("profile".to_string(), profile.to_json()));
        }
        JsonValue::Object(pairs)
    }

    /// The `--explain` rendering: the indented phase tree, or a hint when
    /// the run was not profiled.
    pub fn explain(&self) -> String {
        match &self.profile {
            Some(profile) => profile.render(),
            None => "no profile collected (run with metrics enabled)\n".to_string(),
        }
    }

    /// Multi-line human-readable rendering (the CLI's `--stats`).
    pub fn pretty(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let ms = self.wall_nanos as f64 / 1e6;
        let _ = writeln!(s, "query id           {}", self.query_id);
        let _ = writeln!(s, "rows in            {}", self.rows_in);
        let _ = writeln!(s, "groups out         {}", self.groups_out);
        let _ = writeln!(s, "threads            {}", self.threads);
        let _ = writeln!(
            s,
            "wall time          {ms:.2} ms  ({:.1} M rows/s)",
            self.rows_per_sec() / 1e6
        );
        let st = &self.stats;
        let _ = writeln!(s, "passes used        {}", st.passes_used());
        let _ = writeln!(s, "  level   hash_rows   part_rows   task_ms");
        for lvl in 0..st.passes_used().max(1) {
            let _ = writeln!(
                s,
                "  {lvl:<5} {:>11} {:>11} {:>9.2}",
                st.hash_rows_per_level.get(lvl).copied().unwrap_or(0),
                st.part_rows_per_level.get(lvl).copied().unwrap_or(0),
                st.task_nanos_per_level.get(lvl).copied().unwrap_or(0) as f64 / 1e6,
            );
        }
        let _ = writeln!(
            s,
            "seals {}   switches to partitioning {}   to hashing {}   fallback merges {}",
            st.seals, st.switches_to_partitioning, st.switches_to_hashing, st.fallback_merges
        );
        if st.budget_denials + st.budget_downgrades + st.cancellations + st.contained_panics > 0 {
            let _ = writeln!(
                s,
                "robustness         budget denials {}   downgrades {}   cancellations {}   contained panics {}",
                st.budget_denials, st.budget_downgrades, st.cancellations, st.contained_panics
            );
        }
        if st.budget_high_water_bytes > 0 {
            let _ = writeln!(
                s,
                "budget high-water  {:.2} MiB",
                st.budget_high_water_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        if st.spilled_runs() > 0 {
            let _ = writeln!(
                s,
                "spill              runs {}   {} B out   restored {} ({} B)",
                st.spilled_runs(),
                st.spilled_bytes,
                st.restored_runs,
                st.restored_bytes
            );
            if st.spill_encoded_bytes > 0 {
                let _ = writeln!(
                    s,
                    "spill compression  {} B on disk   ratio {:.2}",
                    st.spill_encoded_bytes,
                    st.spill_encoded_bytes as f64 / st.spilled_bytes.max(1) as f64
                );
            }
            if st.overlapped_io_nanos + st.spill_io_wait_nanos > 0 {
                let _ = writeln!(
                    s,
                    "spill overlap      {:.2} ms hidden   {:.2} ms waited",
                    st.overlapped_io_nanos as f64 / 1e6,
                    st.spill_io_wait_nanos as f64 / 1e6
                );
            }
        }
        if st.spill_retries + st.restore_retries + st.spill_io_abandons + st.spill_reclaimed_files
            > 0
        {
            let _ = writeln!(
                s,
                "spill i/o          retries {}+{}   abandons {}   reclaimed {} ({} B)",
                st.spill_retries,
                st.restore_retries,
                st.spill_io_abandons,
                st.spill_reclaimed_files,
                st.spill_reclaimed_bytes
            );
        }
        if st.disk_high_water_bytes > 0 || st.disk_budget_denials > 0 {
            let _ = writeln!(
                s,
                "disk high-water    {:.2} MiB   denials {}",
                st.disk_high_water_bytes as f64 / (1024.0 * 1024.0),
                st.disk_budget_denials
            );
        }
        if let Some(pool) = &self.pool {
            let t = pool.totals();
            let _ = writeln!(
                s,
                "pool               tasks {}   steals {}   failed scans {}   idle {:.2} ms",
                t.tasks_executed,
                t.steals,
                t.failed_steal_scans,
                t.idle_nanos as f64 / 1e6
            );
        }
        if let Some(metrics) = &self.metrics {
            let m = metrics.merged();
            let _ = writeln!(
                s,
                "tables             inserts {}   probe steps {}   sealed {}",
                m.counter(Counter::TableInserts),
                m.counter(Counter::ProbeSteps),
                m.counter(Counter::TablesSealed),
            );
            let _ = writeln!(s, "  probe len        {}", hist_line(&m, Hist::ProbeLen));
            let _ = writeln!(s, "  seal fill %      {}", hist_line(&m, Hist::SealFillPct));
            let _ = writeln!(s, "partitioning       wrote {} B", m.counter(Counter::PartBytes),);
            let _ = writeln!(s, "  digit skew %     {}", hist_line(&m, Hist::PartitionSkewPct));
            let _ = writeln!(s, "  morsel rows      {}", hist_line(&m, Hist::MorselRows));
            if m.alpha_count() > 0 {
                let _ = writeln!(
                    s,
                    "alpha at switches  count {}   mean {:.2}",
                    m.alpha_count(),
                    m.alpha_sum() / m.alpha_count() as f64
                );
            }
        }
        s
    }
}

fn hist_line(w: &WorkerSnapshot, h: Hist) -> String {
    let hist = w.hist(h);
    if hist.is_empty() {
        return "-".to_string();
    }
    format!(
        "n {}   mean {:.2}   p99 ≤ {}   max {}",
        hist.count(),
        hist.mean(),
        hist.quantile_bound(0.99),
        hist.max()
    )
}

/// JSON form of [`OpStats`].
pub fn stats_json(stats: &OpStats) -> JsonValue {
    JsonValue::obj([
        ("hash_rows_per_level", JsonValue::u64_array(stats.hash_rows_per_level.iter().copied())),
        ("part_rows_per_level", JsonValue::u64_array(stats.part_rows_per_level.iter().copied())),
        ("task_nanos_per_level", JsonValue::u64_array(stats.task_nanos_per_level.iter().copied())),
        ("passes_used", JsonValue::U64(stats.passes_used() as u64)),
        ("seals", JsonValue::U64(stats.seals)),
        ("switches_to_partitioning", JsonValue::U64(stats.switches_to_partitioning)),
        ("switches_to_hashing", JsonValue::U64(stats.switches_to_hashing)),
        ("fallback_merges", JsonValue::U64(stats.fallback_merges)),
        ("budget_denials", JsonValue::U64(stats.budget_denials)),
        ("budget_downgrades", JsonValue::U64(stats.budget_downgrades)),
        ("budget_high_water_bytes", JsonValue::U64(stats.budget_high_water_bytes)),
        ("cancellations", JsonValue::U64(stats.cancellations)),
        ("contained_panics", JsonValue::U64(stats.contained_panics)),
        ("spilled_runs", JsonValue::U64(stats.spilled_runs())),
        (
            "spilled_runs_per_level",
            JsonValue::u64_array(stats.spilled_runs_per_level.iter().copied()),
        ),
        ("spilled_bytes", JsonValue::U64(stats.spilled_bytes)),
        ("restored_runs", JsonValue::U64(stats.restored_runs)),
        ("restored_bytes", JsonValue::U64(stats.restored_bytes)),
        ("spill_retries", JsonValue::U64(stats.spill_retries)),
        ("restore_retries", JsonValue::U64(stats.restore_retries)),
        ("spill_io_abandons", JsonValue::U64(stats.spill_io_abandons)),
        ("spill_reclaimed_files", JsonValue::U64(stats.spill_reclaimed_files)),
        ("spill_reclaimed_bytes", JsonValue::U64(stats.spill_reclaimed_bytes)),
        ("disk_budget_denials", JsonValue::U64(stats.disk_budget_denials)),
        ("disk_high_water_bytes", JsonValue::U64(stats.disk_high_water_bytes)),
        ("spill_encoded_bytes", JsonValue::U64(stats.spill_encoded_bytes)),
        ("overlapped_io_nanos", JsonValue::U64(stats.overlapped_io_nanos)),
        ("spill_io_wait_nanos", JsonValue::U64(stats.spill_io_wait_nanos)),
    ])
}

fn worker_pool_json(w: &WorkerPoolMetrics) -> JsonValue {
    JsonValue::obj([
        ("tasks_executed", JsonValue::U64(w.tasks_executed)),
        ("steals", JsonValue::U64(w.steals)),
        ("failed_steal_scans", JsonValue::U64(w.failed_steal_scans)),
        ("idle_nanos", JsonValue::U64(w.idle_nanos)),
    ])
}

/// JSON form of the scheduler counters.
fn pool_json(pool: &PoolMetrics) -> JsonValue {
    JsonValue::obj([
        ("totals", worker_pool_json(&pool.totals())),
        ("workers", JsonValue::Array(pool.workers.iter().map(worker_pool_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let stats = OpStats {
            hash_rows_per_level: vec![1000, 200],
            part_rows_per_level: vec![500, 0],
            task_nanos_per_level: vec![7_000_000, 1_000_000],
            seals: 4,
            switches_to_partitioning: 2,
            spilled_runs_per_level: vec![0, 3],
            spilled_bytes: 4096,
            restored_runs: 3,
            restored_bytes: 4096,
            ..OpStats::default()
        };
        let pool = PoolMetrics {
            workers: vec![
                WorkerPoolMetrics {
                    tasks_executed: 5,
                    steals: 1,
                    failed_steal_scans: 2,
                    idle_nanos: 300,
                },
                WorkerPoolMetrics {
                    tasks_executed: 3,
                    steals: 0,
                    failed_steal_scans: 1,
                    idle_nanos: 700,
                },
            ],
        };
        let rec = hsa_obs::Recorder::deep(2);
        rec.add(0, Counter::TableInserts, 1000);
        rec.observe(0, Hist::ProbeLen, 0);
        rec.record_alpha(1, 3.5);
        RunReport {
            query_id: 7,
            rows_in: 1500,
            groups_out: 40,
            threads: 2,
            wall_nanos: 5_000_000,
            stats,
            pool: Some(pool),
            metrics: Some(rec.snapshot()),
            profile: None,
            trace_json: None,
        }
    }

    #[test]
    fn pretty_mentions_the_headline_numbers() {
        let report = sample_report();
        let text = report.pretty();
        assert!(text.contains("query id           7"));
        assert!(text.contains("rows in            1500"));
        assert!(!text.contains("kernel"));
        assert!(text.contains("passes used        2"));
        assert!(text.contains("spill              runs 3"));
        assert!(text.contains("steals 1"));
        assert!(text.contains("inserts 1000"));
        assert!(text.contains("alpha at switches  count 1   mean 3.50"));
    }

    #[test]
    fn explain_without_a_profile_says_so() {
        let report = sample_report();
        assert!(report.explain().contains("no profile collected"));
    }

    #[test]
    fn pretty_shows_the_budget_high_water_when_nonzero() {
        let mut report = sample_report();
        assert!(!report.pretty().contains("budget high-water"));
        report.stats.budget_high_water_bytes = 3 * 1024 * 1024;
        assert!(report.pretty().contains("budget high-water  3.00 MiB"));
    }
}
