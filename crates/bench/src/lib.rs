//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Every figure of the paper has a `fig*` binary in `src/bin/` that prints
//! the measured series as TSV (plus a short interpretation header). The
//! helpers here implement the paper's measurement protocol:
//!
//! * **Element time** (§6.1): `T · P / N / C` — nanoseconds each core
//!   spends per element, comparable across thread counts and column
//!   counts and directly against machine constants like the cost of a
//!   cache miss.
//! * **Median of repeats**: "all presented numbers are the median of 10
//!   runs"; the repeat count scales down for the slowest configurations.
//!
//! Every binary also accepts `--json <path>` and then writes the tables it
//! printed as a machine-readable sidecar (see [`Sidecar`]).

use hsa_obs::json::JsonValue;
use std::time::Instant;

pub mod diff;
pub mod ladder;

/// Measure `f`, returning (median seconds, last result).
pub fn median_secs<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(repeats.max(1));
    let t0 = Instant::now();
    let mut last = f();
    times.push(t0.elapsed().as_secs_f64());
    for _ in 1..repeats {
        let t0 = Instant::now();
        last = f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last)
}

/// The paper's element-time metric in nanoseconds: `T · P / N / C`.
pub fn element_time_ns(total_secs: f64, threads: usize, rows: usize, columns: usize) -> f64 {
    total_secs * 1e9 * threads as f64 / rows.max(1) as f64 / columns.max(1) as f64
}

/// Payload bandwidth in GiB/s for `rows` 8-byte elements.
pub fn bandwidth_gib_s(total_secs: f64, rows: usize) -> f64 {
    (rows as f64 * 8.0) / total_secs / (1u64 << 30) as f64
}

/// Standard K sweep of the figures: powers of two from `lo` to `hi`.
pub fn k_sweep(lo_log2: u32, hi_log2: u32) -> Vec<u64> {
    (lo_log2..=hi_log2).map(|e| 1u64 << e).collect()
}

/// Emit one TSV row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// CLI arguments with any `--json <path>` pair removed, program name
/// excluded — what positional parsing should index into.
pub fn positional_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            let _ = args.next();
        } else {
            out.push(a);
        }
    }
    out
}

/// Parse positional CLI argument `i` (1-based, flags skipped) as a number.
pub fn arg<T: std::str::FromStr>(i: usize) -> Option<T> {
    positional_args().get(i - 1).and_then(|s| s.parse().ok())
}

/// Repeat counts that keep total run time reasonable at any size.
pub fn repeats_for(n: usize) -> usize {
    match n {
        0..=1_000_000 => 9,
        1_000_001..=8_000_000 => 5,
        8_000_001..=33_000_000 => 3,
        _ => 1,
    }
}

/// Deterministic pseudo-random u64 keys (full range).
pub fn random_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // xorshift the high bits down so all 64 bits vary
            let x = s ^ (s >> 31);
            x.wrapping_mul(0x9e3779b97f4a7c15)
        })
        .collect()
}

/// Number of threads to run "full parallelism" experiments with.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

/// Operator configuration used by the figure sweeps: the defaults with an
/// explicit strategy and thread count.
pub fn sweep_cfg(strategy: hsa_core::Strategy, threads: usize) -> hsa_core::AggregateConfig {
    hsa_core::AggregateConfig { threads, strategy, ..hsa_core::AggregateConfig::default() }
}

/// Time one DISTINCT-style operator run, returning (median secs, stats of
/// the last run).
pub fn time_distinct(
    keys: &[u64],
    cfg: &hsa_core::AggregateConfig,
    repeats: usize,
) -> (f64, hsa_core::OpStats) {
    let (secs, (_, stats)) = median_secs(repeats, || hsa_core::distinct(keys, cfg));
    (secs, stats)
}

/// TSV printer that doubles as a JSON sidecar writer.
///
/// Every `fig*` binary routes its tables through one of these: rows still
/// print as TSV for eyeballing and plotting scripts, and when the binary
/// was invoked with `--json <path>` the same tables are written on drop as
///
/// ```json
/// {"bench": "fig04", "tables": [{"columns": [...], "rows": [[...], ...]}]}
/// ```
///
/// with cells that parse as numbers emitted as JSON numbers.
pub struct Sidecar {
    name: String,
    path: Option<String>,
    tables: Vec<(Vec<String>, Vec<Vec<String>>)>,
}

impl Sidecar {
    /// Build from `std::env::args`, honoring `--json <path>`.
    pub fn from_args(name: &str) -> Self {
        let mut path = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--json" {
                path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }));
            }
        }
        Self { name: name.to_string(), path, tables: Vec::new() }
    }

    /// Print a header row and start a new table in the sidecar.
    pub fn header(&mut self, cells: &[String]) {
        row(cells);
        self.tables.push((cells.to_vec(), Vec::new()));
    }

    /// Print a data row and append it to the current table.
    pub fn row(&mut self, cells: &[String]) {
        row(cells);
        if self.tables.is_empty() {
            self.tables.push((Vec::new(), Vec::new()));
        }
        let Some(table) = self.tables.last_mut() else { return };
        table.1.push(cells.to_vec());
    }

    fn json_cell(cell: &str) -> JsonValue {
        if let Ok(u) = cell.parse::<u64>() {
            JsonValue::U64(u)
        } else if let Ok(f) = cell.parse::<f64>() {
            JsonValue::F64(f)
        } else {
            JsonValue::Str(cell.to_string())
        }
    }

    /// The sidecar document for the tables collected so far.
    pub fn to_json(&self) -> JsonValue {
        let tables: Vec<JsonValue> = self
            .tables
            .iter()
            .map(|(header, rows)| {
                JsonValue::obj([
                    ("columns", JsonValue::Array(header.iter().map(JsonValue::str).collect())),
                    (
                        "rows",
                        JsonValue::Array(
                            rows.iter()
                                .map(|r| {
                                    JsonValue::Array(r.iter().map(|c| Self::json_cell(c)).collect())
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        JsonValue::obj([
            ("bench", JsonValue::str(&self.name)),
            ("tables", JsonValue::Array(tables)),
        ])
    }
}

impl Drop for Sidecar {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            let text = self.to_json().to_string_pretty(2);
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("failed to write {path}: {e}");
            } else {
                eprintln!("# wrote JSON sidecar to {path}");
            }
        }
    }
}

/// Format helper for mixed cells.
#[macro_export]
macro_rules! cells {
    ($($x:expr),* $(,)?) => {
        [$(format!("{}", $x)),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut calls = 0;
        let (m, _) = median_secs(5, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        assert!(m < 0.015, "median {m} should ignore the slow first call");
        assert_eq!(calls, 5);
    }

    #[test]
    fn element_time_scales() {
        // 1 second, 1 thread, 1e9 rows, 1 column = 1 ns/element.
        assert!((element_time_ns(1.0, 1, 1_000_000_000, 1) - 1.0).abs() < 1e-9);
        // Twice the threads = twice the per-core time.
        assert!((element_time_ns(1.0, 2, 1_000_000_000, 1) - 2.0).abs() < 1e-9);
        // Twice the columns = half the per-element-cell time.
        assert!((element_time_ns(1.0, 1, 1_000_000_000, 2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn k_sweep_endpoints() {
        let ks = k_sweep(4, 8);
        assert_eq!(ks, vec![16, 32, 64, 128, 256]);
    }

    #[test]
    fn sidecar_collects_tables_and_serializes() {
        let mut s = Sidecar { name: "test".into(), path: None, tables: Vec::new() };
        s.header(&cells!["k", "ns"]);
        s.row(&cells![16, format!("{:.1}", 2.5)]);
        s.row(&cells![32, "fast"]);
        let parsed = hsa_obs::json::parse(&s.to_json().to_string_pretty(2)).unwrap();
        assert_eq!(parsed.get("bench").unwrap().as_str(), Some("test"));
        let tables = parsed.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        let rows = tables[0].get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_u64(), Some(16));
        assert_eq!(rows[0].as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(rows[1].as_array().unwrap()[1].as_str(), Some("fast"));
    }

    #[test]
    fn bandwidth_math() {
        // 2^30 rows of 8 B in 1 s = 8 GiB/s.
        assert!((bandwidth_gib_s(1.0, 1 << 30) - 8.0).abs() < 1e-9);
    }
}
