//! End-to-end integration tests: every strategy × every §6.5 distribution
//! against a scalar reference, across the whole crate stack.

use hashing_is_sorting::datagen::{distinct as count_distinct, generate, Distribution};
use hashing_is_sorting::{aggregate, distinct, AdaptiveParams, AggSpec, AggregateConfig, Strategy};
use std::collections::BTreeMap;

fn reference(keys: &[u64], vals: &[u64]) -> BTreeMap<u64, (u64, u64, u64, u64)> {
    let mut m = BTreeMap::new();
    for (&k, &v) in keys.iter().zip(vals) {
        let e = m.entry(k).or_insert((0u64, 0u64, u64::MAX, 0u64));
        e.0 += 1;
        e.1 += v;
        e.2 = e.2.min(v);
        e.3 = e.3.max(v);
    }
    m
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::HashingOnly,
        Strategy::PartitionAlways { passes: 1 },
        Strategy::PartitionAlways { passes: 2 },
        Strategy::Adaptive(AdaptiveParams::default()),
    ]
}

fn test_cfg(strategy: Strategy) -> AggregateConfig {
    AggregateConfig {
        cache_bytes: 256 << 10, // small cache: recursion kicks in at test sizes
        threads: 2,
        strategy,
        fill_percent: 25,
        morsel_rows: 1 << 13,
    }
}

#[test]
fn every_distribution_every_strategy_matches_reference() {
    let n = 50_000;
    let k = 8_192;
    for dist in Distribution::all() {
        let keys = generate(dist, n, k, 99);
        let vals: Vec<u64> = (0..n as u64).map(|i| i % 1000).collect();
        let expect = reference(&keys, &vals);
        for strat in strategies() {
            let (out, _) = aggregate(
                &keys,
                &[&vals],
                &[AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::max(0)],
                &test_cfg(strat),
            );
            let got: BTreeMap<u64, (u64, u64, u64, u64)> = out
                .sorted_rows()
                .into_iter()
                .map(|(key, s)| (key, (s[0], s[1], s[2], s[3])))
                .collect();
            assert_eq!(got, expect, "{dist:?} × {strat:?}");
        }
    }
}

#[test]
fn distinct_counts_match_datagen() {
    for dist in Distribution::all() {
        let keys = generate(dist, 30_000, 4_096, 7);
        let expect = count_distinct(&keys);
        let (out, _) = distinct(&keys, &test_cfg(Strategy::Adaptive(AdaptiveParams::default())));
        assert_eq!(out.n_groups(), expect, "{dist:?}");
    }
}

#[test]
fn thread_counts_agree() {
    let keys = generate(Distribution::SelfSimilar, 60_000, 10_000, 3);
    let vals: Vec<u64> = (0..keys.len() as u64).collect();
    let mut baseline = None;
    for threads in [1usize, 2, 3, 4, 8] {
        let cfg =
            AggregateConfig { threads, ..test_cfg(Strategy::Adaptive(AdaptiveParams::default())) };
        let (out, _) = aggregate(&keys, &[&vals], &[AggSpec::sum(0)], &cfg);
        let rows = out.sorted_rows();
        match &baseline {
            None => baseline = Some(rows),
            Some(b) => assert_eq!(&rows, b, "threads = {threads}"),
        }
    }
}

#[test]
fn multiple_aggregate_columns_are_independent() {
    let n = 20_000;
    let keys = generate(Distribution::Uniform, n, 500, 11);
    let a: Vec<u64> = (0..n as u64).map(|i| i % 13).collect();
    let b: Vec<u64> = (0..n as u64).map(|i| i % 7).collect();
    let (out, _) = aggregate(
        &keys,
        &[&a, &b],
        &[AggSpec::sum(0), AggSpec::sum(1), AggSpec::max(0), AggSpec::min(1), AggSpec::avg(0)],
        &test_cfg(Strategy::Adaptive(AdaptiveParams::default())),
    );
    // Cross-check the totals column-wise.
    let sum_a: u64 = out.column_u64(0).unwrap().iter().sum();
    let sum_b: u64 = out.column_u64(1).unwrap().iter().sum();
    assert_eq!(sum_a, a.iter().sum::<u64>());
    assert_eq!(sum_b, b.iter().sum::<u64>());
    // AVG(a) per group equals sum/count from the same run.
    let counts: Vec<u64> = {
        let (c, _) = aggregate(
            &keys,
            &[],
            &[AggSpec::count()],
            &test_cfg(Strategy::Adaptive(AdaptiveParams::default())),
        );
        let m: BTreeMap<u64, u64> =
            c.keys.iter().copied().zip(c.states[0].iter().copied()).collect();
        out.keys.iter().map(|k| m[k]).collect()
    };
    let sums = out.column_u64(0).unwrap();
    for (r, (&sum, &count)) in sums.iter().zip(&counts).enumerate() {
        let avg = out.value(4, r);
        let expect = sum as f64 / count as f64;
        assert!((avg - expect).abs() < 1e-9);
    }
}

#[test]
fn extreme_cardinalities() {
    let cfg = test_cfg(Strategy::Adaptive(AdaptiveParams::default()));
    // K = 1
    let (out, _) = distinct(&vec![9u64; 30_000], &cfg);
    assert_eq!(out.n_groups(), 1);
    // K = N
    let keys: Vec<u64> = (0..30_000u64).map(|i| i * 2 + 1).collect();
    let (out, _) = distinct(&keys, &cfg);
    assert_eq!(out.n_groups(), 30_000);
}

#[test]
fn stats_account_for_all_rows() {
    // Level-0 routing must cover exactly N rows for every strategy.
    let keys = generate(Distribution::Uniform, 40_000, 20_000, 5);
    for strat in strategies() {
        let (_, stats) = distinct(&keys, &test_cfg(strat));
        let level0 = stats.hash_rows_per_level[0] + stats.part_rows_per_level[0];
        assert_eq!(level0, 40_000, "{strat:?}");
    }
}

#[test]
fn adaptive_alpha_extremes_stay_correct() {
    let keys = generate(Distribution::MovingCluster, 50_000, 20_000, 8);
    for params in [
        AdaptiveParams { alpha0: 0.0, c: 10.0 }, // never switch
        AdaptiveParams { alpha0: f64::INFINITY, c: 0.5 }, // always switch, tiny budget
        AdaptiveParams { alpha0: f64::INFINITY, c: 1e9 }, // switch once, never back
    ] {
        let (out, _) = distinct(&keys, &test_cfg(Strategy::Adaptive(params)));
        assert_eq!(out.n_groups(), count_distinct(&keys), "{params:?}");
    }
}
