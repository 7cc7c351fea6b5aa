//! Figure 4: per-pass breakdown of the illustrative strategies (§5).
//!
//! (a) `HASHINGONLY`, (b) `PARTITIONALWAYS` with one partitioning pass,
//! (c) with two — over uniformly distributed data, sweeping K. The paper's
//! stacked bars become TSV columns here: element time per recursion level
//! (task time summed over threads, normalized per element).
//!
//! Expected shape: HashingOnly is flat and cheap while K fits a table and
//! degrades once every pass misses the cache; PartitionAlways pays its
//! fixed passes at every K, so it loses for small K and wins for large K.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig04 [rows_log2]
//! ```

use hsa_bench::*;
use hsa_core::Strategy;
use hsa_datagen::{generate, Distribution};

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(22);
    let n = 1usize << rows_log2;
    let threads = default_threads();
    let repeats = repeats_for(n).min(5);

    println!("# Figure 4: pass breakdown on uniform data, N = 2^{rows_log2}, P = {threads}");
    row(&cells![
        "strategy",
        "log2(K)",
        "total ns/el",
        "level0 ns/el",
        "level1 ns/el",
        "level2+ ns/el",
        "passes"
    ]);

    let strategies: [(&str, Strategy); 3] = [
        ("HashingOnly", Strategy::HashingOnly),
        ("PartitionAlways(1+H)", Strategy::PartitionAlways { passes: 1 }),
        ("PartitionAlways(2+H)", Strategy::PartitionAlways { passes: 2 }),
    ];

    for k in k_sweep(4, rows_log2) {
        let keys = generate(Distribution::Uniform, n, k, 42);
        for (name, strategy) in strategies {
            let cfg = sweep_cfg(strategy, threads);
            let (secs, stats) = time_distinct(&keys, &cfg, repeats);
            let per_level: Vec<f64> =
                stats.task_nanos_per_level.iter().map(|&ns| ns as f64 / n as f64).collect();
            row(&cells![
                name,
                k.ilog2(),
                format!("{:.2}", element_time_ns(secs, threads, n, 1)),
                format!("{:.2}", per_level[0]),
                format!("{:.2}", per_level[1]),
                format!("{:.2}", per_level[2..].iter().sum::<f64>()),
                stats.passes_used(),
            ]);
        }
    }
}
