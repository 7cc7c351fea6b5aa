//! Adversarial inputs and aggressive configurations: a slice of the
//! scenario harness (`tests/scenarios/harness.rs`), so every run is held to
//! the one `check` (DESIGN.md §7 is the clause table).

// This target uses part of the harness; `tests/scenarios.rs` uses all of
// it and keeps the dead-code warnings.
#[allow(dead_code)]
#[path = "scenarios/harness.rs"]
mod harness;

use harness::{check, four, strategies, Keys, Scenario};
use hashing_is_sorting::datagen::Distribution;
use hashing_is_sorting::{AggSpec, AggregateConfig, Strategy};

#[test]
fn adversarial_shared_first_digit() {
    let s = Scenario { keys: Keys::Digits(1), n: 60_000, k: 30_000, ..Scenario::default() };
    let stats = check(&Scenario { specs: vec![AggSpec::count()], ..s }).result.unwrap().stats;
    assert!(stats.passes_used() >= 2, "must recurse past the shared digit");
}

#[test]
fn minimum_table_maximum_fill() {
    let s = Scenario { n: 20_000, k: 5_000, seed: 9, specs: vec![], ..Scenario::default() };
    let tiny = Scenario { cache_bytes: 1, fill_percent: 100, morsel_rows: 1 << 10, ..s };
    let stats = check(&Scenario { strategy: Strategy::HashingOnly, ..tiny }).result.unwrap().stats;
    assert!(stats.seals > 10, "tiny tables must seal constantly: {}", stats.seals);
}

#[test]
fn one_row_morsels() {
    let s = Scenario {
        keys: Keys::Data(Distribution::Zipf),
        n: 5_000,
        k: 100,
        seed: 3,
        ..Scenario::default()
    };
    check(&Scenario { specs: vec![AggSpec::count()], threads: 4, morsel_rows: 1, ..s });
}

/// Four queries at once, five times over, none cancelled, at one to three
/// workers each: operators share no hidden mutable state.
#[test]
fn concurrent_operator_invocations() {
    let s = Scenario { n: 30_000, k: 2_000, seed: 5, specs: vec![], ..Scenario::default() };
    for round in 0..5 {
        let threads = 1 + round % 3;
        check(&Scenario { threads, cache_bytes: 128 << 10, neighbours: 3, ..s.clone() });
    }
}

#[test]
fn extreme_key_and_value_ranges() {
    check(&Scenario {
        keys: Keys::Extremes,
        n: 10_000,
        k: 8,
        specs: four(),
        ..Scenario::default()
    });
}

/// The scale the benches use, at `AggregateConfig::default()`.
#[test]
#[ignore = "slow; run with --ignored"]
fn large_scale_smoke() {
    let d = AggregateConfig::default();
    let s = Scenario { n: 1 << 22, k: 1 << 19, specs: vec![], ..Scenario::default() };
    let s = Scenario {
        cache_bytes: d.cache_bytes,
        threads: d.threads,
        fill_percent: d.fill_percent,
        morsel_rows: d.morsel_rows,
        ..s
    };
    for strategy in [strategies()[0], strategies()[1], strategies()[3]] {
        check(&Scenario { strategy, ..s.clone() });
    }
}
