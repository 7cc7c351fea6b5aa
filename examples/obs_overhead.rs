//! Measures what observability costs: the same 8M-row adaptive DISTINCT
//! with `ObsConfig::disabled()`, with deep metrics, and with metrics +
//! tracing. The disabled run is not free of recording: it keeps the
//! always-on counter cells `OpStats` is lowered from (a few relaxed
//! atomic adds into the worker's own shard per task, seal and flush) and
//! skips the deep part — null checks, no phase clock reads, no locks. It is the baseline the
//! other two are compared with; what the counters themselves cost is the
//! parent-vs-change comparison of the repo benchmark, not this example.
//!
//! ```sh
//! cargo run --release --example obs_overhead [rows_log2]
//! ```

use hashing_is_sorting::{try_aggregate_observed, AggregateConfig, ExecEnv, ObsConfig};
use std::time::Instant;

fn median_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let rows_log2: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(23);
    let n = 1usize << rows_log2;
    // ~n/8 groups: enough locality to exercise both routines adaptively.
    let keys: Vec<u64> =
        (0..n as u64).map(|i| (i.wrapping_mul(0x9e3779b97f4a7c15)) % (n as u64 / 8)).collect();
    let cfg = AggregateConfig::default();
    let repeats = 5;

    let configs: [(&str, ObsConfig); 3] = [
        ("disabled", ObsConfig::disabled()),
        ("metrics", ObsConfig { metrics: true, ..ObsConfig::disabled() }),
        ("metrics+trace", ObsConfig::full()),
    ];

    println!("# obs overhead: DISTINCT over 2^{rows_log2} rows, median of {repeats}");
    let mut base = None;
    for (name, obs) in &configs {
        let secs = median_secs(repeats, || {
            let (out, _) =
                try_aggregate_observed(&keys, &[], &[], &cfg, &ExecEnv::unrestricted(), obs)
                    .expect("unrestricted run");
            assert_eq!(out.n_groups(), n / 8);
        });
        let base = *base.get_or_insert(secs);
        println!(
            "{name:<14} {:>7.1} ms   {:>6.2} ns/row   {:+.2}% vs disabled",
            secs * 1e3,
            secs * 1e9 / n as f64,
            (secs / base - 1.0) * 100.0
        );
    }
}
