//! Property-based tests for the DESIGN.md §7 invariants.
//!
//! Hand-rolled harness: a deterministic splitmix64 generator drives many
//! randomized cases per invariant, so failures reproduce exactly (the
//! failing case index and seed are in the panic message) without any
//! external property-testing dependency.

use hashing_is_sorting::kernels::{
    digit, partition_keys_mapped, scatter_by_digits, AggTable, Hasher64, Insert, Murmur2,
    TableConfig,
};
use hashing_is_sorting::obs::{Counter, Hist, Histogram, Recorder};
use hashing_is_sorting::{
    aggregate, try_aggregate_observed, AdaptiveParams, AggSpec, AggregateConfig, ExecEnv,
    ObsConfig, Strategy as Routing,
};
use std::collections::BTreeMap;

const CASES: u64 = 64;

/// Deterministic splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn vec(&mut self, len: usize, bound: u64) -> Vec<u64> {
        (0..len).map(|_| self.below(bound)).collect()
    }
}

/// Run `body` for `CASES` seeds, labelling any panic with the case seed.
fn cases(name: &str, body: impl Fn(&mut Gen)) {
    for case in 0..CASES {
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut Gen::new(case))));
        if let Err(payload) = result {
            eprintln!("property `{name}` failed at case seed {case}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Row generator: keys from a narrow domain (forces collisions) or a wide
/// one (forces distinctness), values arbitrary.
fn rows(g: &mut Gen) -> (Vec<u64>, Vec<u64>) {
    let n = g.below(2000) as usize;
    let key_bound = if g.next().is_multiple_of(2) { 64 } else { 1 << 30 };
    (g.vec(n, key_bound), g.vec(n, 1_000_000))
}

/// Small cache + morsels so recursion happens at test input sizes.
fn tiny_cfg(strategy: Routing) -> AggregateConfig {
    AggregateConfig {
        cache_bytes: 32 << 10,
        threads: 2,
        strategy,
        fill_percent: 25,
        morsel_rows: 512,
    }
}

fn reference(keys: &[u64], vals: &[u64]) -> BTreeMap<u64, (u64, u64, u64, u64)> {
    let mut m = BTreeMap::new();
    for (&k, &v) in keys.iter().zip(vals) {
        let e = m.entry(k).or_insert((0u64, 0u64, u64::MAX, 0u64));
        e.0 += 1;
        e.1 = e.1.wrapping_add(v);
        e.2 = e.2.min(v);
        e.3 = e.3.max(v);
    }
    m
}

/// Invariant 1: operator output equals a scalar fold, any strategy.
#[test]
fn operator_matches_reference() {
    cases("operator_matches_reference", |g| {
        let (keys, vals) = rows(g);
        let strategy = [
            Routing::HashingOnly,
            Routing::PartitionAlways { passes: 1 },
            Routing::PartitionAlways { passes: 2 },
            Routing::Adaptive(AdaptiveParams::default()),
        ][g.below(4) as usize];
        let (out, _) = aggregate(
            &keys,
            &[&vals],
            &[AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::max(0)],
            &tiny_cfg(strategy),
        );
        let got: BTreeMap<u64, (u64, u64, u64, u64)> =
            out.sorted_rows().into_iter().map(|(k, s)| (k, (s[0], s[1], s[2], s[3]))).collect();
        assert_eq!(got, reference(&keys, &vals), "strategy {strategy:?}");
    });
}

/// Invariant 3: partitioning is a stable permutation into the right
/// digits, and the mapping replay (invariant 4) aligns values with
/// their keys.
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

/// Invariant 2: a sealed table partitions its keys by digit and emits
/// every inserted key exactly once.
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

/// Invariant 6: aggregating pre-aggregated halves equals aggregating
/// the whole (super-aggregate correctness through the full operator).
#[test]
fn split_aggregation_composes() {
    cases("split_aggregation_composes", |g| {
        let (keys, vals) = rows(g);
        if keys.len() < 2 {
            return;
        }
        let cfg = tiny_cfg(Routing::Adaptive(AdaptiveParams::default()));
        let mid = keys.len() / 2;
        let specs = [AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::max(0)];

        // Whole input in one operator call.
        let (whole, _) = aggregate(&keys, &[&vals], &specs, &cfg);

        // Two halves, recombined by a BTreeMap super-aggregate.
        let (a, _) = aggregate(&keys[..mid], &[&vals[..mid]], &specs, &cfg);
        let (b, _) = aggregate(&keys[mid..], &[&vals[mid..]], &specs, &cfg);
        let mut merged: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
        for part in [a, b] {
            for (k, s) in part.sorted_rows() {
                let e = merged.entry(k).or_insert((0, 0, u64::MAX, 0));
                e.0 += s[0];
                e.1 = e.1.wrapping_add(s[1]);
                e.2 = e.2.min(s[2]);
                e.3 = e.3.max(s[3]);
            }
        }
        let got: BTreeMap<u64, (u64, u64, u64, u64)> =
            whole.sorted_rows().into_iter().map(|(k, s)| (k, (s[0], s[1], s[2], s[3]))).collect();
        assert_eq!(got, merged);
    });
}

/// Metrics invariant: every level-0 row goes through exactly one routine,
/// and every counted seal left one fill sample in the deep part.
#[test]
fn metrics_account_for_every_row() {
    cases("metrics_account_for_every_row", |g| {
        let (keys, _) = rows(g);
        let strategy = [
            Routing::HashingOnly,
            Routing::PartitionAlways { passes: 1 },
            Routing::Adaptive(AdaptiveParams::default()),
            Routing::Adaptive(AdaptiveParams { alpha0: g.below(5_000) as f64 / 100.0, c: 0.5 }),
        ][g.below(4) as usize];
        let (_, report) = try_aggregate_observed(
            &keys,
            &[],
            &[AggSpec::count()],
            &tiny_cfg(strategy),
            &ExecEnv::unrestricted(),
            &ObsConfig::full(),
        )
        .unwrap();
        let st = &report.stats;
        let level0 = st.hash_rows_per_level.first().copied().unwrap_or(0)
            + st.part_rows_per_level.first().copied().unwrap_or(0);
        assert_eq!(level0, keys.len() as u64, "strategy {strategy:?}");
        let m = report.metrics.as_ref().unwrap().merged();
        assert_eq!(m.counter(Counter::TablesSealed), m.hist(Hist::SealFillPct).count());
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

/// COUNT conservation: counts sum to N under any adaptive parameters.
#[test]
fn counts_conserved_under_any_adaptive_params() {
    cases("counts_conserved_under_any_adaptive_params", |g| {
        let (keys, _) = rows(g);
        let alpha0 = g.below(10_000) as f64 / 100.0;
        let c = g.below(2_000) as f64 / 100.0;
        let cfg = tiny_cfg(Routing::Adaptive(AdaptiveParams { alpha0, c }));
        let (out, _) = aggregate(&keys, &[], &[AggSpec::count()], &cfg);
        let total: u64 = out.states[0].iter().sum();
        assert_eq!(total, keys.len() as u64, "alpha0={alpha0} c={c}");
    });
}
