//! What the traced window learns from the program's existing public
//! output — `RunReport` (`OpStats`, `ProfileTree`, `PoolMetrics`) on the
//! library doors, the `done` line's report on the wire — folded over the
//! window's queries into per-layer metrics.

use hashing_is_sorting::obs::json::JsonValue;
use hashing_is_sorting::obs::{Phase, PROFILE_LEVELS};
use hashing_is_sorting::RunReport;

/// One reported number and the samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub n: u64,
}

pub fn metric(name: &'static str, value: f64, n: u64) -> Metric {
    Metric { name, value, n }
}

pub const MIB: f64 = (1u64 << 20) as f64;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const PHASE_SHARES: [&str; Phase::COUNT] = [
    "core.phase.hash_insert_share",
    "core.phase.seal_share",
    "core.phase.partition_share",
    "core.phase.grow_merge_share",
    "core.phase.spill_share",
    "core.phase.restore_share",
    "core.phase.output_share",
    "core.phase.driver_share",
];

/// Sums over the traced window's queries.
#[derive(Default)]
pub struct Ledger {
    queries: u64,
    hash_rows: u64,
    part_rows: u64,
    seals: u64,
    switches: u64,
    levels_used: u64,
    spilled_bytes: u64,
    restored_bytes: u64,
    spilled_runs: u64,
    encoded_bytes: u64,
    overlapped_ns: u64,
    io_wait_ns: u64,
    high_water: u64,
    denials: u64,
    /// Profiled queries (library doors only; the server runs unobserved).
    profiled: u64,
    phase_ns: [u64; Phase::COUNT],
    phase_rows: [u64; Phase::COUNT],
    thread_ns: u64,
    wall_ns: u64,
    steals: u64,
    idle_ns: u64,
}

impl Ledger {
    /// Fold in the `stats` object of a report (`report.to_json()` in
    /// process, the `done` line over the wire — one reader for both).
    pub fn add_stats(&mut self, stats: &JsonValue) {
        let num = |key: &str| stats.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let sum = |key: &str| -> u64 {
            let levels = stats.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);
            levels.iter().filter_map(JsonValue::as_u64).sum()
        };
        self.queries += 1;
        self.hash_rows += sum("hash_rows_per_level");
        self.part_rows += sum("part_rows_per_level");
        self.seals += num("seals");
        self.switches += num("switches_to_partitioning");
        self.levels_used = self.levels_used.max(num("passes_used"));
        self.spilled_bytes += num("spilled_bytes");
        self.restored_bytes += num("restored_bytes");
        self.spilled_runs += num("spilled_runs");
        self.encoded_bytes += num("spill_encoded_bytes");
        self.overlapped_ns += num("overlapped_io_nanos");
        self.io_wait_ns += num("spill_io_wait_nanos");
        self.high_water = self.high_water.max(num("budget_high_water_bytes"));
        self.denials += num("budget_denials");
    }

    /// Fold in an in-process report taken with `ObsConfig { metrics: true }`.
    pub fn add_report(&mut self, report: &RunReport) {
        let json = report.to_json();
        self.add_stats(json.get("stats").expect("a report carries stats"));
        let (Some(profile), Some(pool)) = (&report.profile, &report.pool) else { return };
        self.profiled += 1;
        for &phase in Phase::ALL {
            for level in 0..PROFILE_LEVELS {
                let cell = profile.cell(level, phase);
                self.phase_ns[phase as usize] += cell.nanos;
                self.phase_rows[phase as usize] += cell.rows_in;
            }
        }
        self.thread_ns += profile.wall_nanos * profile.threads.max(1) as u64;
        self.wall_ns += report.wall_nanos;
        self.steals += pool.totals().steals;
        self.idle_ns += pool.workers.first().map_or(0, |w| w.idle_nanos);
    }

    /// Nanoseconds per routed row of one profiled phase.
    pub fn phase_ns_per_row(&self, phase: Phase) -> f64 {
        ratio(self.phase_ns[phase as usize] as f64, self.phase_rows[phase as usize] as f64)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let q = self.queries;
        let per_query = |total: u64| ratio(total as f64, q as f64);
        let mut out = vec![
            metric(
                "core.hash_rows_share",
                ratio(self.hash_rows as f64, (self.hash_rows + self.part_rows) as f64),
                q,
            ),
            metric("core.seals", per_query(self.seals), q),
            metric("core.switches", per_query(self.switches), q),
            metric("core.levels_used", self.levels_used as f64, q),
            metric("columnar.store.spilled_mib", per_query(self.spilled_bytes) / MIB, q),
            metric("columnar.store.restored_mib", per_query(self.restored_bytes) / MIB, q),
            metric("columnar.store.spilled_runs", per_query(self.spilled_runs), q),
            metric(
                "columnar.store.encoded_ratio",
                ratio(self.encoded_bytes as f64, self.spilled_bytes as f64),
                q,
            ),
            metric(
                "columnar.store.overlap_share",
                ratio(self.overlapped_ns as f64, (self.overlapped_ns + self.io_wait_ns) as f64),
                q,
            ),
            metric("fault.budget_high_water_mib", self.high_water as f64 / MIB, q),
            metric("fault.budget_denials", per_query(self.denials), q),
        ];
        let p = self.profiled;
        let attributed: u64 = self.phase_ns.iter().sum();
        for (name, &ns) in PHASE_SHARES.iter().zip(&self.phase_ns) {
            out.push(metric(name, ratio(ns as f64, attributed as f64), p));
        }
        out.push(metric("core.phase.coverage", ratio(attributed as f64, self.thread_ns as f64), p));
        out.push(metric("tasks.steals", ratio(self.steals as f64, p as f64), p));
        out.push(metric("tasks.idle_share", ratio(self.idle_ns as f64, self.wall_ns as f64), p));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashing_is_sorting::datagen::{generate, generate_values, Distribution};
    use hashing_is_sorting::{
        try_aggregate_observed, AggSpec, AggregateConfig, ExecEnv, ObsConfig,
    };

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
    }

    #[test]
    fn a_profiled_in_cache_query_is_all_hashing_and_fully_attributed() {
        let keys = generate(Distribution::Uniform, 1 << 16, 64, 3);
        let vals = generate_values(1 << 16, 3);
        let obs = ObsConfig { metrics: true, ..ObsConfig::disabled() };
        let (_, report) = try_aggregate_observed(
            &keys,
            &[&vals],
            &[AggSpec::count(), AggSpec::sum(0)],
            &AggregateConfig::default().single_threaded(),
            &ExecEnv::unrestricted(),
            &obs,
        )
        .unwrap();
        let mut ledger = Ledger::default();
        ledger.add_report(&report);
        let m = ledger.metrics();
        assert_eq!(value(&m, "core.hash_rows_share"), 1.0);
        assert_eq!(value(&m, "columnar.store.spilled_mib"), 0.0);
        assert_eq!(value(&m, "core.phase.partition_share"), 0.0);
        assert!(value(&m, "core.phase.hash_insert_share") > 0.5);
        let shares: f64 = PHASE_SHARES.iter().map(|n| value(&m, n)).sum();
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        assert!(ledger.phase_ns_per_row(Phase::HashInsert) > 0.0);
    }

    #[test]
    fn an_empty_ledger_reports_zeros_not_nans() {
        for m in Ledger::default().metrics() {
            assert_eq!(m.value, 0.0, "{}", m.name);
        }
    }
}
