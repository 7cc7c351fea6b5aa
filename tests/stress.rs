//! Stress and failure-injection tests: adversarial inputs, aggressive
//! configurations, and concurrency hammering beyond the targeted units.

use hashing_is_sorting::datagen::{generate, Distribution, SplitMix64};
use hashing_is_sorting::kernels::{digit, Hasher64, Murmur2};
use hashing_is_sorting::{aggregate, distinct, AdaptiveParams, AggSpec, AggregateConfig, Strategy};

fn cfg(cache_bytes: usize, threads: usize, morsel_rows: usize) -> AggregateConfig {
    AggregateConfig {
        cache_bytes,
        threads,
        strategy: Strategy::Adaptive(AdaptiveParams::default()),
        fill_percent: 25,
        morsel_rows,
    }
}

/// Keys engineered to collide in their first radix digit: the recursion
/// must descend to deeper digits instead of spinning on level 0.
#[test]
fn adversarial_shared_first_digit() {
    let h = Murmur2::default();
    let mut rng = SplitMix64::new(42);
    let mut keys = Vec::new();
    while keys.len() < 30_000 {
        let k = rng.next_u64();
        if digit(h.hash_u64(k), 0) == 0 {
            keys.push(k);
        }
    }
    // Duplicate each key so aggregation has something to merge.
    let doubled: Vec<u64> = keys.iter().chain(keys.iter()).copied().collect();
    let (out, stats) = aggregate(&doubled, &[], &[AggSpec::count()], &cfg(64 << 10, 2, 1 << 12));
    assert_eq!(out.n_groups(), keys.len());
    assert!(out.states[0].iter().all(|&c| c == 2));
    assert!(stats.passes_used() >= 2, "must recurse past the shared digit");
}

/// The absolute minimum table (2 slots per block) with the maximum fill:
/// constant sealing, still correct.
#[test]
fn minimum_table_maximum_fill() {
    let keys = generate(Distribution::Uniform, 20_000, 5_000, 9);
    let config = AggregateConfig {
        cache_bytes: 1, // clamped up to the minimum table internally
        fill_percent: 100,
        strategy: Strategy::HashingOnly, // force sealing (adaptive would switch away)
        ..cfg(1, 2, 1 << 10)
    };
    let (out, stats) = distinct(&keys, &config);
    assert_eq!(out.n_groups(), hashing_is_sorting::datagen::distinct(&keys));
    assert!(stats.seals > 10, "tiny tables must seal constantly: {}", stats.seals);
}

/// One-row morsels: the work-stealing queue handles tens of thousands of
/// tiny tasks without losing or duplicating rows.
#[test]
fn one_row_morsels() {
    let keys = generate(Distribution::Zipf, 5_000, 100, 3);
    let config = cfg(64 << 10, 4, 1);
    let (out, _) = aggregate(&keys, &[], &[AggSpec::count()], &config);
    let total: u64 = out.states[0].iter().sum();
    assert_eq!(total, keys.len() as u64);
}

/// Many concurrent operator invocations from different threads (operators
/// must not share hidden mutable state).
#[test]
fn concurrent_operator_invocations() {
    let keys = generate(Distribution::Uniform, 30_000, 2_000, 5);
    let expected = hashing_is_sorting::datagen::distinct(&keys);
    std::thread::scope(|s| {
        for t in 0..4 {
            let keys = &keys;
            s.spawn(move || {
                for i in 0..5 {
                    let (out, _) = distinct(keys, &cfg(128 << 10, 1 + (t + i) % 3, 1 << 12));
                    assert_eq!(out.n_groups(), expected);
                }
            });
        }
    });
}

/// Extreme values: u64::MAX-adjacent keys and values through every path.
/// (u64::MAX itself is a legal key for the operator — only the baselines
/// reserve it as a sentinel.)
#[test]
fn extreme_key_and_value_ranges() {
    let keys = vec![u64::MAX, 0, u64::MAX, u64::MAX - 1, 0, u64::MAX];
    let vals = vec![u64::MAX, 0, 1, u64::MAX, 5, 2];
    let (out, _) = aggregate(
        &keys,
        &[&vals],
        &[AggSpec::count(), AggSpec::min(0), AggSpec::max(0)],
        &AggregateConfig::default(),
    );
    let rows = out.sorted_rows();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0], (0, vec![2, 0, 5]));
    assert_eq!(rows[1], (u64::MAX - 1, vec![1, u64::MAX, u64::MAX]));
    // key u64::MAX: count 3, min 1, max u64::MAX (sum would wrap; not asked).
    assert_eq!(rows[2], (u64::MAX, vec![3, 1, u64::MAX]));
}

/// Large-ish end-to-end run on every strategy at default configuration —
/// a smoke test at the scale the benches use.
#[test]
#[ignore = "slow; run with --ignored"]
fn large_scale_smoke() {
    let keys = generate(Distribution::Uniform, 1 << 22, 1 << 19, 1);
    for strategy in [
        Strategy::HashingOnly,
        Strategy::PartitionAlways { passes: 1 },
        Strategy::Adaptive(AdaptiveParams::default()),
    ] {
        let (out, _) = distinct(&keys, &AggregateConfig { strategy, ..AggregateConfig::default() });
        assert_eq!(out.n_groups(), hashing_is_sorting::datagen::distinct(&keys));
    }
}
