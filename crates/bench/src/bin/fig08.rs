//! Figure 8: comparison with prior work (§6.4).
//!
//! The paper's architecture-neutral setting: a DISTINCT query (C = 1, no
//! aggregate columns) on uniform data, element time over a K sweep.
//! Following §6.4, the baselines receive the true output cardinality as
//! their optimizer hint (and so, exceptionally, does nothing in our
//! operator — it never uses one).
//!
//! Expected shape: all algorithms are similar while K fits the caches;
//! each fixed-pass baseline degrades past its design limit (L3, Σ L3,
//! 256·L3 marks); ADAPTIVE degrades gracefully and leads for large K.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig08 [rows_log2]
//! ```

use hsa_baselines::{all_baselines, BaselineConfig};
use hsa_bench::*;
use hsa_core::{AdaptiveParams, Strategy};
use hsa_datagen::{generate, Distribution};

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(22);
    let n = 1usize << rows_log2;
    let threads = default_threads();
    let repeats = repeats_for(n).min(3);
    let baselines = all_baselines();

    println!(
        "# Figure 8: DISTINCT on uniform data vs prior work, N = 2^{rows_log2}, P = {threads}"
    );
    println!("# element time in ns; baselines get k_hint = true K (§6.4)");
    let mut header = vec!["log2(K)".to_string(), "ADAPTIVE".to_string()];
    header.extend(baselines.iter().map(|b| b.name().to_string()));
    row(&header);

    for k in k_sweep(4, rows_log2) {
        let keys = generate(Distribution::Uniform, n, k, 42);
        let mut line = vec![format!("{}", k.ilog2())];

        let cfg = sweep_cfg(Strategy::Adaptive(AdaptiveParams::default()), threads);
        let (secs, _) = time_distinct(&keys, &cfg, repeats);
        line.push(format!("{:.1}", element_time_ns(secs, threads, n, 1)));

        let bcfg = BaselineConfig {
            threads,
            k_hint: k as usize,
            count: false,
            ..BaselineConfig::default()
        };
        for b in &baselines {
            let (secs, _) = median_secs(repeats, || b.run(&keys, &bcfg));
            line.push(format!("{:.1}", element_time_ns(secs, threads, n, 1)));
        }
        row(&line);
    }
}
