//! Cross-validation: the five prior-work baselines and the paper's
//! operator must produce identical groups on every distribution — the
//! precondition for the Figure 8 timing comparison to be meaningful.

use hashing_is_sorting::baselines::{all_baselines, BaselineConfig};
use hashing_is_sorting::datagen::{generate, Distribution};
use hashing_is_sorting::{aggregate, AdaptiveParams, AggSpec, AggregateConfig, Strategy};
use std::collections::BTreeMap;

fn core_counts(keys: &[u64]) -> BTreeMap<u64, u64> {
    let cfg = AggregateConfig {
        cache_bytes: 128 << 10,
        threads: 2,
        strategy: Strategy::Adaptive(AdaptiveParams::default()),
        fill_percent: 25,
        morsel_rows: 1 << 12,
    };
    let (out, _) = aggregate(keys, &[], &[AggSpec::count()], &cfg);
    out.keys.iter().copied().zip(out.states[0].iter().copied()).collect()
}

#[test]
fn baselines_agree_with_operator_on_all_distributions() {
    let cfg = BaselineConfig { threads: 2, cache_bytes: 64 << 10, k_hint: 8192, count: true };
    for dist in Distribution::all() {
        let keys = generate(dist, 25_000, 4_096, 13);
        let expect = core_counts(&keys);
        for b in all_baselines() {
            let got: BTreeMap<u64, u64> = b.run(&keys, &cfg).sorted_pairs().into_iter().collect();
            assert_eq!(got, expect, "{} on {dist:?}", b.name());
        }
    }
}

#[test]
fn baselines_agree_at_high_cardinality() {
    let cfg = BaselineConfig { threads: 3, cache_bytes: 64 << 10, k_hint: 50_000, count: true };
    let keys = generate(Distribution::Uniform, 80_000, 60_000, 17);
    let expect = core_counts(&keys);
    for b in all_baselines() {
        let got: BTreeMap<u64, u64> = b.run(&keys, &cfg).sorted_pairs().into_iter().collect();
        assert_eq!(got, expect, "{}", b.name());
    }
}
