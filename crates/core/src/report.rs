//! Structured run reports: everything one operator invocation can tell
//! about itself, in one machine-readable value.
//!
//! [`RunReport`] carries the views of the query's recorder cells — the
//! always-present [`OpStats`], and with `metrics` on the per-worker
//! [`hsa_obs::MetricsSnapshot`] and the [`ProfileTree`] — beside the
//! scheduler counters ([`hsa_tasks::PoolMetrics`]) and the rendered
//! Chrome trace. It serializes to JSON with the dependency-free writer in
//! `hsa_obs::json` and renders for the CLI's `--explain`.

use crate::stats::OpStats;
use hsa_obs::json::JsonValue;
use hsa_obs::{Counter, Hist, MetricsSnapshot, ProfileTree};
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

/// Marks a worker's timeline holds before it counts the rest as dropped.
pub(crate) const TRACE_CAPACITY: usize = 8192;

/// What the observed operator entry points should collect.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Collect the deep per-worker metrics (probe-length and fill
    /// histograms, per-switch α, phase attribution, scheduler counters)
    /// and return the per-worker counters beside the [`OpStats`] totals.
    pub metrics: bool,
    /// Record the task timeline (Chrome trace events): a span per timed
    /// phase call and an instant per operator event, up to 8192 per
    /// worker; further ones are counted as dropped.
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

    /// The `--explain` rendering, the one human-readable report: what the
    /// run counted — rows and groups, seals and switches, robustness, spill
    /// and disk, the scheduler, and with deep metrics the probe, fill, skew
    /// and morsel histograms and the mean α at switches — then the indented
    /// phase tree, or a hint when the run was not profiled.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let st = &self.stats;
        let _ = writeln!(
            s,
            "query {} · rows {} in → {} groups out · {} passes · {:.2} M rows/s",
            self.query_id,
            self.rows_in,
            self.groups_out,
            st.passes_used(),
            self.rows_per_sec() / 1e6
        );
        let _ = writeln!(
            s,
            "seals {} · switches {} to partitioning, {} to hashing · fallback merges {}",
            st.seals, st.switches_to_partitioning, st.switches_to_hashing, st.fallback_merges
        );
        if st.budget_denials + st.budget_downgrades + st.cancellations + st.contained_panics > 0 {
            let _ = writeln!(
                s,
                "robustness · budget denials {} · downgrades {} · cancellations {} · contained panics {}",
                st.budget_denials, st.budget_downgrades, st.cancellations, st.contained_panics
            );
        }
        if st.spilled_runs() > 0 {
            let _ = writeln!(
                s,
                "spill · {} runs · {} B out · {} B encoded · restored {} ({} B) · {:.2} ms hidden · {:.2} ms waited",
                st.spilled_runs(),
                st.spilled_bytes,
                st.spill_encoded_bytes,
                st.restored_runs,
                st.restored_bytes,
                st.overlapped_io_nanos as f64 / 1e6,
                st.spill_io_wait_nanos as f64 / 1e6
            );
        }
        if st.spill_retries + st.restore_retries + st.spill_io_abandons + st.spill_reclaimed_files
            > 0
        {
            let _ = writeln!(
                s,
                "spill i/o · retries {}+{} · abandons {} · reclaimed {} ({} B)",
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
                "disk high-water {} B · denials {}",
                st.disk_high_water_bytes, st.disk_budget_denials
            );
        }
        if let Some(pool) = &self.pool {
            let t = pool.totals();
            let _ = writeln!(
                s,
                "pool · tasks {} · steals {} · failed scans {} · idle {:.2} ms",
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
                "tables · inserts {} · probe steps {}",
                m.counter(Counter::TableInserts),
                m.counter(Counter::ProbeSteps)
            );
            for (label, h) in [
                ("probe len", Hist::ProbeLen),
                ("seal fill %", Hist::SealFillPct),
                ("digit skew %", Hist::PartitionSkewPct),
                ("morsel rows", Hist::MorselRows),
            ] {
                let hist = m.hist(h);
                if !hist.is_empty() {
                    let _ = writeln!(
                        s,
                        "{label} · n {} · mean {:.2} · p99 ≤ {} · max {}",
                        hist.count(),
                        hist.mean(),
                        hist.quantile_bound(0.99),
                        hist.max()
                    );
                }
            }
            if m.alpha_count() > 0 {
                let _ = writeln!(
                    s,
                    "α at switches · count {} · mean {:.2}",
                    m.alpha_count(),
                    m.alpha_sum() / m.alpha_count() as f64
                );
            }
        }
        match &self.profile {
            Some(profile) => s.push_str(&profile.render()),
            None => s.push_str("no profile collected (run with metrics enabled)\n"),
        }
        s
    }
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
    use hsa_obs::{Phase, PhaseCell};
    use std::time::Instant;

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
        rec.add(0, Counter::ProbeSteps, 1200);
        for h in [Hist::ProbeLen, Hist::SealFillPct, Hist::PartitionSkewPct, Hist::MorselRows] {
            rec.observe(0, h, 0);
        }
        rec.record_alpha(1, 3.5);
        let cell = |nanos, rows_in, rows_out, bytes| PhaseCell {
            nanos,
            calls: 1,
            rows_in,
            rows_out,
            bytes,
        };
        rec.phase(0, 0, Phase::HashInsert, cell(4_000_000, 1000, 250, 0), Instant::now(), 0);
        rec.phase(0, 0, Phase::Partition, cell(2_000_000, 500, 500, 4000), Instant::now(), 0);
        rec.phase(1, 1, Phase::HashInsert, cell(1_000_000, 200, 40, 0), Instant::now(), 0);
        let snapshot = rec.snapshot();
        let profile = ProfileTree::build(&snapshot, 5_000_000, 2, 3 << 20, 0);
        RunReport {
            query_id: 7,
            rows_in: 1500,
            groups_out: 40,
            threads: 2,
            wall_nanos: 5_000_000,
            stats,
            pool: Some(pool),
            metrics: Some(snapshot),
            profile: Some(profile),
            trace_json: None,
        }
    }

    /// `--explain` is the one human report: it states every fact of the
    /// run — the counters, the scheduler, the deep histograms and α — and
    /// the phase tree's wall, threads, budget high water and per-level
    /// rows and bytes.
    #[test]
    fn explain_states_every_fact_of_the_run() {
        let mut report = sample_report();
        report.stats = OpStats {
            switches_to_hashing: 1,
            fallback_merges: 1,
            budget_denials: 2,
            budget_downgrades: 3,
            cancellations: 4,
            contained_panics: 5,
            spill_encoded_bytes: 2048,
            overlapped_io_nanos: 1_500_000,
            spill_io_wait_nanos: 500_000,
            spill_retries: 6,
            restore_retries: 7,
            spill_io_abandons: 8,
            spill_reclaimed_files: 9,
            spill_reclaimed_bytes: 999,
            disk_high_water_bytes: 12345,
            disk_budget_denials: 10,
            ..report.stats
        };
        let text = report.explain();
        for fact in [
            "query 7 · rows 1500 in → 40 groups out · 2 passes · 0.30 M rows/s",
            "seals 4 · switches 2 to partitioning, 1 to hashing · fallback merges 1",
            "budget denials 2 · downgrades 3 · cancellations 4 · contained panics 5",
            "spill · 3 runs · 4096 B out · 2048 B encoded · restored 3 (4096 B)",
            "1.50 ms hidden · 0.50 ms waited",
            "spill i/o · retries 6+7 · abandons 8 · reclaimed 9 (999 B)",
            "disk high-water 12345 B · denials 10",
            "pool · tasks 8 · steals 1 · failed scans 3 · idle 0.00 ms",
            "tables · inserts 1000 · probe steps 1200",
            "probe len · n 1 · mean 0.00",
            "seal fill % · n 1",
            "digit skew % · n 1",
            "morsel rows · n 1",
            "α at switches · count 1 · mean 3.50",
            "query · wall 5.00 ms · 2 threads",
            "budget high-water 3.00 MiB",
            "level 0",
            "hash_insert · 4.00 ms",
            "rows 1000 → 250",
            "partition · 2.00 ms",
            "rows 500 → 500 · 3.91 KiB",
            "level 1",
            "rows 200 → 40",
        ] {
            assert!(text.contains(fact), "{fact:?} missing from:\n{text}");
        }
        assert!(!text.contains("kernel"));
    }

    #[test]
    fn explain_without_a_profile_says_so() {
        let report = RunReport { profile: None, ..sample_report() };
        assert!(report.explain().contains("no profile collected"));
    }
}
