//! Property tests. The operator's own — many small random inputs, narrow
//! or nearly distinct keys, over tiny tables — are a slice of the scenario
//! harness (`tests/scenarios/harness.rs`), held to its one `check`. The
//! building blocks under it — partitioning, sealing, histograms and the
//! counters-only recorder — are checked directly.
//!
//! Each property runs over many seeded cases drawn from `datagen`'s
//! splitmix64, so a failure reproduces exactly: a failing scenario is
//! shrunk and printed, a failing building-block case prints its seed.

// This target uses part of the harness; `tests/scenarios.rs` uses all of
// it and keeps the dead-code warnings.
#[allow(dead_code)]
#[path = "scenarios/harness.rs"]
mod harness;

use harness::{check, draws, four, strategies, Cuts, Door, Keys, Scenario};
use hashing_is_sorting::datagen::{Distribution, SplitMix64};
use hashing_is_sorting::kernels::{
    digit, partition_keys_mapped, scatter_by_digits, AggTable, Hasher64, Insert, Murmur2,
    TableConfig,
};
use hashing_is_sorting::obs::{Counter, Hist, Histogram, Recorder};
use hashing_is_sorting::{AdaptiveParams, AggSpec, Strategy};

const CASES: u64 = 64;

fn case(seed: u64) -> Scenario {
    let mut draw = draws(seed);
    let keys = [Keys::Data(Distribution::Uniform), Keys::Wide][draw(2) as usize];
    let (n, k) = (draw(2_000) as usize, 64);
    let s = Scenario {
        keys,
        n,
        k,
        seed,
        specs: four(),
        strategy: strategies()[draw(4) as usize],
        ..Scenario::default()
    };
    Scenario { cache_bytes: 32 << 10, morsel_rows: 512, ..s }
}

#[test]
fn operator_matches_reference() {
    for seed in 0..CASES {
        check(&case(seed));
    }
}

#[test]
fn split_aggregation_composes() {
    for seed in 0..CASES {
        let s = Scenario { strategy: Strategy::Adaptive(AdaptiveParams::default()), ..case(seed) };
        check(&Scenario { door: Door::Merge, cuts: Cuts::Every(s.n.div_ceil(2)), ..s });
    }
}

#[test]
fn metrics_account_for_every_row() {
    for seed in 0..CASES {
        let mut draw = draws(!seed);
        let alpha0 = draw(5_000) as f64 / 100.0;
        let strategy = [
            strategies()[0],
            strategies()[1],
            strategies()[3],
            Strategy::Adaptive(AdaptiveParams { alpha0, c: 0.5 }),
        ];
        let strategy = strategy[draw(4) as usize];
        check(&Scenario { specs: vec![AggSpec::count()], strategy, ..case(seed) });
    }
}

#[test]
fn counts_conserved_under_any_adaptive_params() {
    for seed in 0..CASES {
        let mut draw = draws(!seed);
        let (alpha0, c) = (draw(10_000) as f64 / 100.0, draw(2_000) as f64 / 100.0);
        let strategy = Strategy::Adaptive(AdaptiveParams { alpha0, c });
        check(&Scenario { specs: vec![AggSpec::count()], strategy, ..case(seed) });
    }
}

/// `datagen`'s splitmix64 with the draws the properties need.
struct Gen(SplitMix64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Run `body` for `CASES` seeds, labelling any panic with the case seed.
fn cases(name: &str, body: impl Fn(&mut Gen)) {
    for case in 0..CASES {
        let mut g = Gen(SplitMix64::new(case));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut g)));
        if let Err(payload) = result {
            eprintln!("property `{name}` failed at case seed {case}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Partitioning is a stable permutation into the right digits, and the
/// mapping replay aligns values with their keys.
#[test]
fn partitioning_permutes_and_mapping_aligns() {
    cases("partitioning_permutes_and_mapping_aligns", |g| {
        let n = g.below(3000) as usize;
        let keys: Vec<u64> = (0..n).map(|_| g.next()).collect();
        let h = Murmur2::default();
        let vals: Vec<u64> = keys.iter().map(|k| k.wrapping_mul(31).wrapping_add(7)).collect();
        let mut mapping = Vec::new();
        let kp = partition_keys_mapped([keys.as_slice()].into_iter(), h, 0, &mut mapping);
        let vp = scatter_by_digits(&mapping, [vals.as_slice()].into_iter());

        // Permutation: total count and multiset preserved.
        let total: usize = kp.iter().map(|p| p.len()).sum();
        assert_eq!(total, keys.len());
        let mut collected: Vec<u64> = kp.iter().flat_map(|p| p.iter()).collect();
        collected.sort_unstable();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(collected, sorted);

        for (d, (pk, pv)) in kp.iter().zip(&vp).enumerate() {
            assert_eq!(pk.len(), pv.len());
            for (k, v) in pk.iter().zip(pv.iter()) {
                assert_eq!(digit(h.hash_u64(k), 0), d);
                assert_eq!(v, k.wrapping_mul(31).wrapping_add(7));
            }
        }
    });
}

/// A sealed table partitions its keys by digit and emits every inserted
/// key exactly once.
#[test]
fn sealed_table_is_a_radix_partition() {
    cases("sealed_table_is_a_radix_partition", |g| {
        let n = g.below(800) as usize;
        let keys: Vec<u64> = (0..n).map(|_| g.next()).collect();
        let h = Murmur2::default();
        let mut t = AggTable::new(TableConfig { total_slots: 1 << 13, fill_percent: 25 }, 0, &[]);
        let mut inserted = Vec::new();
        for &k in &keys {
            match t.insert_key(k, h.hash_u64(k)) {
                Insert::New(_) => inserted.push(k),
                Insert::Hit(_) => {}
                Insert::Full => break,
            }
        }
        let mut emitted = Vec::new();
        let mut last_digit = None;
        t.seal(|d, ks, _| {
            if let Some(prev) = last_digit {
                assert!(d > prev, "digits must be emitted in order");
            }
            last_digit = Some(d);
            for &k in ks {
                assert_eq!(digit(h.hash_u64(k), 0), d);
                emitted.push(k);
            }
        });
        emitted.sort_unstable();
        inserted.sort_unstable();
        assert_eq!(emitted, inserted);
    });
}

/// Histogram invariant: the cumulative distribution is non-decreasing and
/// ends at the sample count, for arbitrary sample streams and merges.
#[test]
fn histogram_cumulative_is_monotone() {
    cases("histogram_cumulative_is_monotone", |g| {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let n = g.below(3000);
        for i in 0..n {
            let shift = g.below(64) as u32;
            let v = g.next() >> shift;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        let c = a.cumulative();
        for w in c.windows(2) {
            assert!(w[0] <= w[1], "cumulative must be non-decreasing");
        }
        assert_eq!(*c.last().unwrap(), n);
        assert_eq!(a.count(), n);
        assert_eq!(a.buckets().iter().sum::<u64>(), n);
        if n > 0 {
            assert!(a.quantile_bound(1.0) <= a.max());
        }
    });
}

/// Counters-only invariant: arbitrary recording against a recorder built
/// without the deep part keeps every count exactly and leaves histograms
/// and α samples empty (the deep calls really are no-ops on it).
#[test]
fn counters_only_recorder_keeps_counts_and_no_deep_part() {
    cases("counters_only_recorder_keeps_counts_and_no_deep_part", |g| {
        let r = Recorder::counters(8);
        let mut expect = [0u64; Counter::COUNT];
        for _ in 0..g.below(200) {
            let w = g.below(8) as usize;
            let c = Counter::ALL[g.below(Counter::COUNT as u64) as usize];
            let n = g.next() >> 8; // 200 of these cannot overflow a cell
            r.add(w, c, n);
            expect[c as usize] += n;
            r.observe(w, Hist::ALL[g.below(Hist::COUNT as u64) as usize], g.next());
            r.record_alpha(w, g.below(1000) as f64 / 10.0);
        }
        assert!(!r.is_deep());
        let snap = r.snapshot();
        assert_eq!(snap.workers.len(), 8);
        let m = snap.merged();
        for &c in Counter::ALL {
            assert_eq!(m.counter(c), expect[c as usize], "{}", c.label());
        }
        assert!(Hist::ALL.iter().all(|&h| m.hist(h).is_empty()));
        assert_eq!(m.alpha_count(), 0);
        assert!(m.alphas().is_empty());
    });
}
