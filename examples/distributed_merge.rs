//! Distributed-style aggregation with `try_merge_partials`.
//!
//! The paper's super-aggregate machinery (§3.1) is exactly what a
//! scale-out aggregation needs: each "node" aggregates its shard, ships
//! the small partial result, and a final operator run merges the partials
//! — COUNT partials via SUM, MIN via MIN, and AVG via its (SUM, COUNT)
//! decomposition.
//!
//! ```sh
//! cargo run --release --example distributed_merge
//! ```

use hashing_is_sorting::datagen::{generate, generate_values, Distribution};
use hashing_is_sorting::{
    aggregate, try_merge_partials, AggError, AggSpec, AggregateConfig, ExecEnv,
};

fn main() -> Result<(), AggError> {
    let shards = 4;
    let rows_per_shard = 500_000;
    let k = 10_000;
    let specs = [AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::avg(0)];
    let cfg = AggregateConfig::default();

    // Each shard aggregates its own data (in a real system: on its node).
    let shard_data: Vec<(Vec<u64>, Vec<u64>)> = (0..shards)
        .map(|s| {
            (
                generate(Distribution::Zipf, rows_per_shard, k, 1000 + s),
                generate_values(rows_per_shard, 2000 + s),
            )
        })
        .collect();
    let partials: Vec<_> = shard_data
        .iter()
        .map(|(keys, vals)| aggregate(keys, &[vals.as_slice()], &specs, &cfg).0)
        .collect();
    for (s, p) in partials.iter().enumerate() {
        println!(
            "shard {s}: {} rows -> {} partial groups ({}x reduction)",
            rows_per_shard,
            p.n_groups(),
            rows_per_shard / p.n_groups().max(1)
        );
    }

    // The coordinator merges the partials with one more operator run;
    // a partial from other specs, or out of shape, is a typed error.
    let refs: Vec<_> = partials.iter().collect();
    let (merged, stats) = try_merge_partials(&refs, &specs, &cfg, &ExecEnv::unrestricted())?;
    println!(
        "\nmerged: {} groups from {} partial rows ({} hashed, {} partitioned)",
        merged.n_groups(),
        partials.iter().map(|p| p.n_groups()).sum::<usize>(),
        stats.total_hash_rows(),
        stats.total_part_rows(),
    );

    // Verify against a single-pass aggregation over all the data.
    let all_keys: Vec<u64> = shard_data.iter().flat_map(|(k, _)| k.iter().copied()).collect();
    let all_vals: Vec<u64> = shard_data.iter().flat_map(|(_, v)| v.iter().copied()).collect();
    let (whole, _) = aggregate(&all_keys, &[&all_vals], &specs, &cfg);
    assert_eq!(whole.sorted_rows(), merged.sorted_rows());
    println!("single-pass aggregation over all {} rows agrees ✓", all_keys.len());

    // Show one group end to end.
    let r = merged.keys.iter().position(|&key| key == 1).expect("key 1 exists");
    println!(
        "\ngroup key=1: count {}, sum {}, min {}, avg {:.2}",
        merged.value(0, r),
        merged.value(1, r),
        merged.value(2, r),
        merged.value(3, r),
    );
    Ok(())
}
