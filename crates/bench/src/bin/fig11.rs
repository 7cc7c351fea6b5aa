//! Figure 11 (Appendix A.2): impact of the switch-back constant c.
//!
//! ADAPTIVE on uniform data for several K, sweeping c. Expectations from
//! the paper: c is irrelevant while K fits one table (never switches);
//! c → 0 degenerates towards HASHINGONLY (slow for large K); growing c
//! approaches PARTITIONALWAYS throughput with diminishing returns — the
//! paper quotes ~17% off at c = 5, ~5–11% at c = 10, ~4–5% at c = 20, and
//! picks c = 10.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig11 [rows_log2]
//! ```

use hsa_bench::*;
use hsa_core::{AdaptiveParams, Strategy};
use hsa_datagen::{generate, Distribution};

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(22);
    let n = 1usize << rows_log2;
    let threads = default_threads();
    let repeats = repeats_for(n).min(3);

    println!("# Figure 11: impact of switch-back constant c, uniform, N = 2^{rows_log2}");
    row(&cells!["log2(K)", "c", "ns/element", "switches to part", "switches back"]);

    for k in [1u64 << 10, 1 << 16, 1u64 << (rows_log2 - 2)] {
        let keys = generate(Distribution::Uniform, n, k, 42);
        for c in [0.25, 1.0, 2.0, 5.0, 10.0, 20.0, 100.0] {
            let cfg = sweep_cfg(Strategy::Adaptive(AdaptiveParams { alpha0: 11.0, c }), threads);
            let (secs, stats) = time_distinct(&keys, &cfg, repeats);
            row(&cells![
                k.ilog2(),
                c,
                format!("{:.1}", element_time_ns(secs, threads, n, 1)),
                stats.switches_to_partitioning,
                stats.switches_to_hashing
            ]);
        }
    }
}
