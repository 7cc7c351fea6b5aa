//! Figure 9: skew resistance of ADAPTIVE (§6.5).
//!
//! Runs ADAPTIVE on every §6.5 distribution over a K sweep. The paper's
//! claims, checked here: (1) no distribution is slower than uniform —
//! "uniform is the hardest distribution for our operator and skew only
//! improves its performance"; (2) the hash-share column shows *where* the
//! operator keeps hashing (the solid markers of the paper's plot):
//! clustered/skewed inputs sustain hashing to much larger K.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig09 [rows_log2]
//! ```

use hsa_bench::*;
use hsa_core::{distinct, AdaptiveParams, Strategy};
use hsa_datagen::{generate, Distribution};

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(22);
    let n = 1usize << rows_log2;
    let threads = default_threads();
    let repeats = repeats_for(n).min(3);

    println!("# Figure 9: ADAPTIVE per distribution, N = 2^{rows_log2}, P = {threads}");
    println!("# hash% = share of rows routed through HASHING (the paper's solid markers)");
    row(&cells!["distribution", "log2(K)", "ns/element", "hash%", "groups"]);

    for dist in Distribution::all() {
        for k in k_sweep(6, rows_log2).into_iter().step_by(2) {
            let keys = generate(dist, n, k, 42);
            let cfg = sweep_cfg(Strategy::Adaptive(AdaptiveParams::default()), threads);
            let (secs, (agg, stats)) = median_secs(repeats, || distinct(&keys, &cfg));
            let hash_share = 100.0 * stats.total_hash_rows() as f64
                / (stats.total_hash_rows() + stats.total_part_rows()).max(1) as f64;
            row(&cells![
                dist.name(),
                k.ilog2(),
                format!("{:.1}", element_time_ns(secs, threads, n, 1)),
                format!("{hash_share:.0}"),
                agg.n_groups()
            ]);
        }
    }
}
