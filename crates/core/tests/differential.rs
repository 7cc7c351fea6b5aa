//! Differential property test: the operator against a `BTreeMap`.
//!
//! Random keys, values, strategies, and configurations are run through
//! [`try_aggregate`] and compared row-for-row with a trivially correct
//! single-threaded reference. The generator covers the structural edge
//! cases the kernels special-case: empty input, a single row, all rows in
//! one group, and keys at `u64::MAX` (the growable table's floor probe).

use hsa_agg::AggSpec;
use hsa_core::{try_aggregate, AdaptiveParams, AggregateConfig, ExecEnv, MemoryBudget, Strategy};
use std::collections::BTreeMap;

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Physical state columns per group for `COUNT, SUM(v0), MIN(v1), MAX(v1)`.
fn reference(keys: &[u64], v0: &[u64], v1: &[u64]) -> BTreeMap<u64, [u64; 4]> {
    let mut m: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
    for ((&k, &a), &b) in keys.iter().zip(v0).zip(v1) {
        let e = m.entry(k).or_insert([0, 0, u64::MAX, 0]);
        e[0] += 1;
        e[1] = e[1].wrapping_add(a);
        e[2] = e[2].min(b);
        e[3] = e[3].max(b);
    }
    m
}

fn key_column(rng: &mut Rng, shape: u64, rows: usize) -> Vec<u64> {
    (0..rows)
        .map(|_| match shape {
            // Dense duplicates: heavy early aggregation.
            0 => rng.below(64),
            // Moderate cardinality.
            1 => rng.below(10_000),
            // Nearly unique: α close to 1, the adaptive switch's domain.
            2 => rng.next(),
            // One group.
            3 => 42,
            // Extremes, including the GrowTable floor at u64::MAX.
            _ => match rng.below(4) {
                0 => u64::MAX,
                1 => u64::MAX - 1,
                2 => 0,
                _ => rng.below(8),
            },
        })
        .collect()
}

fn strategy(rng: &mut Rng) -> Strategy {
    match rng.below(4) {
        0 => Strategy::HashingOnly,
        1 => Strategy::PartitionAlways { passes: 1 },
        2 => Strategy::PartitionAlways { passes: 2 },
        _ => Strategy::Adaptive(AdaptiveParams::default()),
    }
}

fn config(rng: &mut Rng) -> AggregateConfig {
    AggregateConfig {
        // 32 KiB..512 KiB tables: small enough that non-trivial inputs
        // seal and recurse.
        cache_bytes: (32 << 10) << rng.below(5),
        threads: 1 + rng.below(3) as usize,
        strategy: strategy(rng),
        morsel_rows: 1 << (8 + rng.below(6)),
        ..AggregateConfig::default()
    }
}

fn check_case(keys: &[u64], v0: &[u64], v1: &[u64], cfg: &AggregateConfig) {
    let specs = [AggSpec::count(), AggSpec::sum(0), AggSpec::min(1), AggSpec::max(1)];
    let budget = MemoryBudget::limited(1 << 32);
    let env = ExecEnv::unrestricted().with_budget(budget.clone());
    let (out, stats) = try_aggregate(keys, &[v0, v1], &specs, cfg, &env)
        .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    assert_eq!(budget.outstanding(), 0, "{cfg:?} leaked reservations");
    assert!(
        stats.total_hash_rows() + stats.total_part_rows() >= keys.len() as u64,
        "{cfg:?} lost rows"
    );

    let expect = reference(keys, v0, v1);
    let rows = out.sorted_rows();
    assert_eq!(rows.len(), expect.len(), "group count under {cfg:?}");
    for ((key, cols), (ek, e)) in rows.iter().zip(&expect) {
        assert_eq!(key, ek, "group keys under {cfg:?}");
        assert_eq!(cols.as_slice(), e.as_slice(), "state of key {key} under {cfg:?}");
    }
}

#[test]
fn random_workloads_match_the_reference() {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    for round in 0..40 {
        let rows = [0, 1, 2, 100, 4096, 20_000][(round % 6) as usize];
        let shape = rng.below(5);
        let keys = key_column(&mut rng, shape, rows);
        let v0: Vec<u64> = (0..rows).map(|_| rng.below(1 << 32)).collect();
        let v1: Vec<u64> = (0..rows).map(|_| rng.next()).collect();
        check_case(&keys, &v0, &v1, &config(&mut rng));
    }
}

#[test]
fn empty_input_yields_no_groups() {
    let mut rng = Rng(7);
    for _ in 0..4 {
        check_case(&[], &[], &[], &config(&mut rng));
    }
}

#[test]
fn single_row() {
    let mut rng = Rng(11);
    for key in [0, 1, u64::MAX] {
        check_case(&[key], &[17], &[99], &config(&mut rng));
    }
}

#[test]
fn one_giant_group() {
    let mut rng = Rng(13);
    let rows = 50_000;
    let keys = vec![0xDEAD_BEEF_u64; rows];
    let v0: Vec<u64> = (0..rows as u64).collect();
    let v1: Vec<u64> = (0..rows as u64).rev().collect();
    for _ in 0..3 {
        check_case(&keys, &v0, &v1, &config(&mut rng));
    }
}

#[test]
fn saturated_keys_hit_the_table_floor() {
    let mut rng = Rng(17);
    let keys: Vec<u64> = (0..10_000).map(|i| u64::MAX - (i % 7)).collect();
    let v0: Vec<u64> = (0..10_000u64).collect();
    let v1: Vec<u64> = (0..10_000u64).map(|i| i ^ 0xFFFF).collect();
    for _ in 0..3 {
        check_case(&keys, &v0, &v1, &config(&mut rng));
    }
}

#[test]
fn distinct_matches_a_set() {
    use std::collections::BTreeSet;
    let mut rng = Rng(23);
    for rows in [0usize, 1, 777, 10_000] {
        let shape = rng.below(5);
        let keys = key_column(&mut rng, shape, rows);
        let cfg = config(&mut rng);
        let (out, _) = try_aggregate(&keys, &[], &[], &cfg, &ExecEnv::unrestricted())
            .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        let expect: BTreeSet<u64> = keys.iter().copied().collect();
        let got: Vec<u64> = out.sorted_rows().into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, expect.into_iter().collect::<Vec<_>>(), "{cfg:?}");
    }
}
