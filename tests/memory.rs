//! Large-K queries back to back in one process, the memory slice of the
//! operator's checks. When a query is over, the process-wide chunk depot
//! keeps no more idle bytes than the query held lent at its high water: a
//! repeat finds what it needs, and a small query after a large one gives
//! the rest back.
//!
//! What the depot keeps is only the last query's if no other query ran
//! beside it, so this target is a process of its own with one test: a
//! second test here would run on another thread and share the depot. The
//! queries go straight to the library; `tests/scenarios.rs` holds results
//! of the same shapes to the operator's contract.

use hashing_is_sorting::datagen::{generate, Distribution};
use hashing_is_sorting::obs::Counter;
use hashing_is_sorting::{
    depot, try_aggregate_observed, AggSpec, AggStream, AggregateConfig, ExecEnv, ObsConfig,
};

/// One query of the sequence: `n` uniform keys over `k` groups and one
/// value column at `threads` workers, in one call or in pushes of `push`
/// rows.
struct Query {
    n: usize,
    k: u64,
    seed: u64,
    threads: usize,
    specs: Vec<AggSpec>,
    push: Option<usize>,
}

impl Query {
    /// Run the query and read the depot while its result is still held:
    /// the lent high water, the idle bytes, and whether rows left a table
    /// as runs (only runs take chunks).
    fn run(&self) -> (u64, u64, bool) {
        let keys = generate(Distribution::Uniform, self.n, self.k, self.seed);
        let vals: Vec<u64> = keys.iter().map(|k| k.wrapping_mul(31)).collect();
        let cfg = AggregateConfig {
            cache_bytes: 64 << 10,
            threads: self.threads,
            morsel_rows: 4096,
            ..AggregateConfig::default()
        };
        let env = ExecEnv::unrestricted();
        let obs = ObsConfig { metrics: true, ..ObsConfig::disabled() };
        let (out, report) = match self.push {
            None => try_aggregate_observed(&keys, &[&vals], &self.specs, &cfg, &env, &obs),
            Some(rows) => AggStream::new(&self.specs, &cfg, &env, &obs).and_then(|mut stream| {
                for (k, v) in keys.chunks(rows).zip(vals.chunks(rows)) {
                    stream.push(k, &[v])?;
                }
                stream.finish()
            }),
        }
        .expect("a quiet query succeeds");
        let idle = depot::idle_bytes();
        assert_eq!(out.n_groups() as u64, report.groups_out);
        let st = &report.stats;
        let made_runs = st.seals > 0 || st.part_rows_per_level.iter().any(|&rows| rows > 0);
        let merged = report.metrics.expect("observed").merged();
        (merged.counter(Counter::DepotLentHighWater), idle, made_runs)
    }
}

/// K = N/2 at one and two workers, through both doors, with a small
/// query between the large ones.
fn back_to_back() -> Vec<Query> {
    let two = vec![AggSpec::count(), AggSpec::sum(0)];
    let four = vec![AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::max(0)];
    let large = |threads, specs: &Vec<AggSpec>, push| Query {
        n: 200_000,
        k: 100_000,
        seed: 1,
        threads,
        specs: specs.clone(),
        push,
    };
    let small = Query { n: 2_000, k: 100, seed: 2, threads: 2, specs: two.clone(), push: None };
    vec![
        large(2, &two, None),
        large(2, &two, None),
        large(1, &two, Some(50_000)),
        small,
        large(2, &two, Some(50_000)),
        large(2, &four, None),
    ]
}

#[test]
fn the_depot_keeps_at_most_the_last_querys_high_water() {
    for (i, q) in back_to_back().iter().enumerate() {
        let (high_water, idle, made_runs) = q.run();
        // Only runs take chunks: the small query stops at level 0, its
        // result written straight into the caller's vectors, and lends none.
        assert_eq!(high_water > 0, made_runs, "query {i}");
        assert!(
            idle <= high_water,
            "{idle} idle bytes after a query that lent {high_water} at most: query {i}"
        );
    }
}
