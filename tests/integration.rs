//! Every strategy and §6.5 distribution, through the facade: a slice of
//! the scenario harness (`tests/scenarios/harness.rs`), so every run is
//! held to the one `check` (DESIGN.md §7 is the clause table).

// This target uses part of the harness; `tests/scenarios.rs` uses all of
// it and keeps the dead-code warnings.
#[allow(dead_code)]
#[path = "scenarios/harness.rs"]
mod harness;

use harness::{check, four, strategies, Keys, Scenario};
use hashing_is_sorting::datagen::Distribution;
use hashing_is_sorting::{AdaptiveParams, AggSpec, Strategy};

fn data(keys: Distribution, n: usize, k: u64, seed: u64) -> Scenario {
    let s = Scenario { keys: Keys::Data(keys), n, k, seed, specs: vec![], ..Scenario::default() };
    Scenario { cache_bytes: 256 << 10, morsel_rows: 1 << 13, ..s }
}

#[test]
fn every_distribution_every_strategy_matches_reference() {
    for d in Distribution::all() {
        for strategy in strategies() {
            check(&Scenario { specs: four(), strategy, ..data(d, 50_000, 8_192, 99) });
        }
    }
}

#[test]
fn distinct_counts_match_datagen() {
    for d in Distribution::all() {
        check(&data(d, 30_000, 4_096, 7));
    }
}

#[test]
fn thread_counts_agree() {
    let s = Scenario {
        specs: vec![AggSpec::sum(0)],
        ..data(Distribution::SelfSimilar, 60_000, 10_000, 3)
    };
    for threads in [1, 2, 3, 4, 8] {
        check(&Scenario { threads, ..s.clone() });
    }
}

#[test]
fn multiple_aggregate_columns_are_independent() {
    let (sum, min, max) = (AggSpec::sum, AggSpec::min, AggSpec::max);
    let specs = vec![sum(0), sum(1), max(0), min(1), AggSpec::avg(0)];
    check(&Scenario { specs, ..data(Distribution::Uniform, 20_000, 500, 11) });
}

#[test]
fn extreme_cardinalities() {
    for k in [1, 30_000] {
        check(&data(Distribution::Sequential, 30_000, k, 1));
    }
}

#[test]
fn stats_account_for_all_rows() {
    for strategy in strategies() {
        check(&Scenario { strategy, ..data(Distribution::Uniform, 40_000, 20_000, 5) });
    }
}

#[test]
fn adaptive_alpha_extremes_stay_correct() {
    for (alpha0, c) in [(0.0, 10.0), (f64::INFINITY, 0.5), (f64::INFINITY, 1e9)] {
        let strategy = Strategy::Adaptive(AdaptiveParams { alpha0, c });
        check(&Scenario { strategy, ..data(Distribution::MovingCluster, 50_000, 20_000, 8) });
    }
}
