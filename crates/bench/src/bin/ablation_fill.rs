//! Ablation: hash-table fill rate (§4.1's "full at 25%").
//!
//! The paper fixes the table's fill limit at 25% so probe chains stay
//! near length 1. This sweep quantifies the trade-off: higher fill means
//! fewer seals (less run management) but longer probes; lower fill means
//! the opposite. Run on uniform data at a K that forces several seals.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin ablation_fill [rows_log2]
//! ```

use hsa_bench::*;
use hsa_core::{AdaptiveParams, AggregateConfig, Strategy};
use hsa_datagen::{generate, Distribution};

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(22);
    let n = 1usize << rows_log2;
    let threads = default_threads();
    let repeats = repeats_for(n).min(3);

    println!("# Ablation: table fill limit, uniform, N = 2^{rows_log2}");
    row(&cells!["log2(K)", "fill %", "ns/element", "seals"]);

    for k in [1u64 << 12, 1 << 16, 1 << 20] {
        let keys = generate(Distribution::Uniform, n, k, 42);
        for fill in [10usize, 25, 50, 75, 90] {
            let cfg = AggregateConfig {
                threads,
                strategy: Strategy::Adaptive(AdaptiveParams::default()),
                fill_percent: fill,
                ..AggregateConfig::default()
            };
            let (secs, stats) = time_distinct(&keys, &cfg, repeats);
            row(&cells![
                k.ilog2(),
                fill,
                format!("{:.1}", element_time_ns(secs, threads, n, 1)),
                stats.seals
            ]);
        }
    }
}
