//! A realistic analytical query over the columns of a fact table.
//!
//! Builds a synthetic `sales(store, product, revenue, quantity)` fact
//! table with a skewed store distribution (big flagship stores, long tail)
//! and answers two queries with one operator each:
//!
//! 1. `SELECT store, COUNT(*), SUM(revenue), AVG(quantity) GROUP BY store`
//!    — few groups, heavy skew: the operator aggregates everything in
//!    cache, never partitioning.
//! 2. `SELECT product, SUM(revenue) GROUP BY product` — millions of
//!    products: the adaptive operator partitions first, exactly as §5
//!    prescribes, without being told K.
//!
//! ```sh
//! cargo run --release --example sales_report
//! ```

use hashing_is_sorting::datagen::{generate, generate_values, Distribution};
use hashing_is_sorting::{aggregate, AggSpec, AggregateConfig};

fn main() {
    let n = 2_000_000;
    // ~200 stores, self-similar: flagship stores dominate.
    let store = generate(Distribution::SelfSimilar, n, 200, 7);
    // ~1M products, uniform.
    let product = generate(Distribution::Uniform, n, 1 << 20, 8);
    let revenue = generate_values(n, 9);
    let quantity = generate(Distribution::Uniform, n, 50, 10);

    let cfg = AggregateConfig::default();

    // Query 1: per-store report.
    let (by_store, s1) = aggregate(
        &store,
        &[&revenue, &quantity],
        &[AggSpec::count(), AggSpec::sum(0), AggSpec::avg(1)],
        &cfg,
    );
    let mut rows: Vec<usize> = (0..by_store.n_groups()).collect();
    rows.sort_unstable_by_key(|&r| std::cmp::Reverse(by_store.value(1, r) as u64));
    println!("top 5 stores by revenue ({} stores total):", by_store.n_groups());
    println!("  store   orders     revenue  avg qty");
    for &r in rows.iter().take(5) {
        println!(
            "  {:>5}  {:>7}  {:>10}  {:>7.2}",
            by_store.keys[r],
            by_store.value(0, r) as u64,
            by_store.value(1, r) as u64,
            by_store.value(2, r),
        );
    }
    println!(
        "  [operator: {} rows hashed, {} partitioned — high locality → hashing]\n",
        s1.total_hash_rows(),
        s1.total_part_rows()
    );

    // Query 2: per-product revenue (huge K).
    let (by_product, s2) = aggregate(&product, &[&revenue], &[AggSpec::sum(0)], &cfg);
    println!(
        "{} distinct products; total revenue {}",
        by_product.n_groups(),
        by_product.states[0].iter().sum::<u64>()
    );
    println!(
        "  [operator: {} rows hashed, {} partitioned over {} passes — low locality → partitioning]",
        s2.total_hash_rows(),
        s2.total_part_rows(),
        s2.passes_used()
    );

    // Cross-check the revenue total against the raw column.
    assert_eq!(by_product.states[0].iter().sum::<u64>(), revenue.iter().sum::<u64>());
}
