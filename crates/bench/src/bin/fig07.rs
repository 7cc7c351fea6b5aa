//! Figure 7: scalability with the number of aggregate columns (§6.3).
//!
//! `SELECT k, SUM(v₁), …, SUM(v_C) GROUP BY k` for C = 0, 1, 2, 4, 8. The
//! element-time metric divides by the total column count (C + 1), so the
//! paper's claim is a *flat* line per K: each additional column costs the
//! same as the grouping column or slightly less (no hashing, no collision
//! handling — just the mapping replay).
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig07 [rows_log2]
//! ```

use hsa_agg::AggSpec;
use hsa_bench::*;
use hsa_core::{aggregate, AdaptiveParams, Strategy};
use hsa_datagen::{generate, generate_values, Distribution};

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(21);
    let n = 1usize << rows_log2;
    let threads = default_threads();
    let repeats = repeats_for(n).min(3);

    println!("# Figure 7: ns per element-cell vs number of aggregate columns, N = 2^{rows_log2}");
    println!("# expectation: roughly flat per K (columns scale linearly)");
    row(&cells!["log2(K)", "C", "ns/element-cell", "total seconds"]);

    let value_cols: Vec<Vec<u64>> = (0..8).map(|i| generate_values(n, 100 + i)).collect();

    for k in [1u64 << 8, 1 << 14, 1 << 18] {
        let keys = generate(Distribution::Uniform, n, k, 42);
        for c in [0usize, 1, 2, 4, 8] {
            let inputs: Vec<&[u64]> = value_cols[..c].iter().map(Vec::as_slice).collect();
            let specs: Vec<AggSpec> = (0..c).map(AggSpec::sum).collect();
            let cfg = sweep_cfg(Strategy::Adaptive(AdaptiveParams::default()), threads);
            let (secs, _) = median_secs(repeats, || aggregate(&keys, &inputs, &specs, &cfg));
            row(&cells![
                k.ilog2(),
                c,
                format!("{:.2}", element_time_ns(secs, threads, n, c + 1)),
                format!("{secs:.4}")
            ]);
        }
    }
}
