//! Figure 6: speedup with the number of cores (§6.2).
//!
//! The paper reports near-linear speedup (≈16 on 20 cores) for every K,
//! because the threads share nothing and synchronize only at run
//! boundaries. **Substitution note:** this host exposes a limited number
//! of hardware threads (often one); the experiment still exercises the
//! full multi-threaded code path — work-stealing morsels, shared level-1
//! buckets, parallel bucket recursion — and reports whatever speedup the
//! host allows. On a single core the expected result is a flat line at
//! ≈1.0 with bounded overhead, which is itself a meaningful check: the
//! parallel machinery must not cost measurable time when it cannot help.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig06 [rows_log2] [max_threads]
//! ```

use hsa_bench::*;
use hsa_core::{AdaptiveParams, Strategy};
use hsa_datagen::{generate, Distribution};

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(22);
    let max_threads: usize = arg(2).unwrap_or_else(|| default_threads().max(4));
    let n = 1usize << rows_log2;
    let repeats = repeats_for(n).min(3);

    println!(
        "# Figure 6: speedup vs threads, uniform, N = 2^{rows_log2} (host parallelism: {})",
        default_threads()
    );
    row(&cells!["log2(K)", "threads", "seconds", "speedup vs 1 thread"]);

    for k in [1u64 << 6, 1 << 12, 1 << 18] {
        let keys = generate(Distribution::Uniform, n, k, 42);
        let mut base = None;
        let mut t = 1;
        while t <= max_threads {
            let cfg = sweep_cfg(Strategy::Adaptive(AdaptiveParams::default()), t);
            let (secs, _) = time_distinct(&keys, &cfg, repeats);
            let baseline = *base.get_or_insert(secs);
            row(&cells![k.ilog2(), t, format!("{secs:.4}"), format!("{:.2}", baseline / secs)]);
            t *= 2;
        }
    }
}
