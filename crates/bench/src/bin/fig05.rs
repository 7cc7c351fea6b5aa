//! Figure 5: ADAPTIVE against the illustrative strategies (§5).
//!
//! Uniform data, K sweep. The paper's claim: ADAPTIVE's run time
//! "corresponds piecewise to the best of the other strategies" — it
//! matches HashingOnly while a table holds all groups and tracks the best
//! PartitionAlways depth beyond, without knowing K.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig05 [rows_log2]
//! ```

use hsa_bench::*;
use hsa_core::{AdaptiveParams, Strategy};
use hsa_datagen::{generate, Distribution};

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(22);
    let n = 1usize << rows_log2;
    let threads = default_threads();
    let repeats = repeats_for(n).min(5);

    println!("# Figure 5: ADAPTIVE vs illustrative strategies, uniform, N = 2^{rows_log2}, P = {threads}");
    println!("# expectation: ADAPTIVE ≈ min(HashingOnly, PartitionAlways*) at every K");
    row(&cells![
        "log2(K)",
        "HashingOnly",
        "Part(1)+H",
        "Part(2)+H",
        "ADAPTIVE",
        "adaptive part rows %"
    ]);

    for k in k_sweep(4, rows_log2) {
        let keys = generate(Distribution::Uniform, n, k, 42);
        let mut results = Vec::new();
        for strategy in [
            Strategy::HashingOnly,
            Strategy::PartitionAlways { passes: 1 },
            Strategy::PartitionAlways { passes: 2 },
            Strategy::Adaptive(AdaptiveParams::default()),
        ] {
            let cfg = sweep_cfg(strategy, threads);
            let (secs, stats) = time_distinct(&keys, &cfg, repeats);
            results.push((element_time_ns(secs, threads, n, 1), stats));
        }
        let part_share = 100.0 * results[3].1.total_part_rows() as f64
            / (results[3].1.total_part_rows() + results[3].1.total_hash_rows()).max(1) as f64;
        row(&cells![
            k.ilog2(),
            format!("{:.2}", results[0].0),
            format!("{:.2}", results[1].0),
            format!("{:.2}", results[2].0),
            format!("{:.2}", results[3].0),
            format!("{part_share:.0}")
        ]);
    }
}
