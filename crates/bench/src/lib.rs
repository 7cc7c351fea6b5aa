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

use std::time::Instant;

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

/// Parse positional CLI argument `i` (1-based) as a number.
pub fn arg<T: std::str::FromStr>(i: usize) -> Option<T> {
    std::env::args().nth(i).and_then(|s| s.parse().ok())
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
    fn bandwidth_math() {
        // 2^30 rows of 8 B in 1 s = 8 GiB/s.
        assert!((bandwidth_gib_s(1.0, 1 << 30) - 8.0).abs() < 1e-9);
    }
}
