//! Figure 10 (Appendix A.1): determining the switching threshold α₀.
//!
//! HASHINGONLY and PARTITIONALWAYS(1) are run on data sets whose spatial
//! locality is parameterized (by varying K for the three locality-bearing
//! distributions). For each data set we record the *observed* first-pass
//! reduction factor α = N / (rows entering pass 2) and both run times.
//! Plotting time against α, the two strategies cross in a band of α; the
//! paper finds the crossings at α ∈ [7, 16] and picks α₀ ≈ 11.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig10 [rows_log2]
//! ```

use hsa_bench::*;
use hsa_core::Strategy;
use hsa_datagen::{generate, Distribution};

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(22);
    let n = 1usize << rows_log2;
    let threads = default_threads();
    let repeats = repeats_for(n).min(3);

    println!("# Figure 10: HashingOnly vs PartitionAlways(1) as a function of observed alpha");
    println!("# N = 2^{rows_log2}; alpha = N / rows entering pass 2 under HashingOnly");
    row(&cells![
        "distribution",
        "log2(K)",
        "alpha",
        "HashingOnly ns/el",
        "Partition(1) ns/el",
        "hash wins"
    ]);

    let mut crossovers: Vec<f64> = Vec::new();
    for dist in [
        Distribution::MovingCluster,
        Distribution::SelfSimilar,
        Distribution::HeavyHitter,
        Distribution::Uniform,
    ] {
        let mut last: Option<(f64, bool)> = None;
        for e in (8..=rows_log2).step_by(2) {
            let k = 1u64 << e;
            let keys = generate(dist, n, k, 42);

            let (h_secs, h_stats) =
                time_distinct(&keys, &sweep_cfg(Strategy::HashingOnly, threads), repeats);
            let pass2_rows: u64 = h_stats.hash_rows_per_level.iter().skip(1).sum::<u64>().max(1);
            let alpha = n as f64 / pass2_rows as f64;

            let (p_secs, _) = time_distinct(
                &keys,
                &sweep_cfg(Strategy::PartitionAlways { passes: 1 }, threads),
                repeats,
            );

            let h_ns = element_time_ns(h_secs, threads, n, 1);
            let p_ns = element_time_ns(p_secs, threads, n, 1);
            let hash_wins = h_ns < p_ns;
            row(&cells![
                dist.name(),
                e,
                format!("{alpha:.1}"),
                format!("{h_ns:.1}"),
                format!("{p_ns:.1}"),
                hash_wins
            ]);
            if let Some((prev_alpha, prev_wins)) = last {
                if prev_wins != hash_wins {
                    crossovers.push((alpha * prev_alpha).sqrt());
                }
            }
            last = Some((alpha, hash_wins));
        }
    }
    if crossovers.is_empty() {
        println!("# no crossover observed in this sweep");
    } else {
        let geo: f64 =
            (crossovers.iter().map(|a| a.ln()).sum::<f64>() / crossovers.len() as f64).exp();
        println!(
            "# crossovers at alpha = {:?} -> suggested alpha0 ≈ {geo:.1} (paper: [7,16], ≈11)",
            crossovers.iter().map(|a| format!("{a:.1}")).collect::<Vec<_>>()
        );
    }
}
