//! Differential test: streaming ingestion against the one-shot slice API.
//!
//! The slice entry points are one-chunk wrappers over `AggStream`, so the
//! two paths share every line of routing code; what this test pins down is
//! that *chunk boundaries are invisible* — any cut of the input into
//! pushes (including empty and 1-row chunks) yields the same groups, and
//! for deterministic configurations the same `OpStats`.

use hsa_agg::AggSpec;
use hsa_core::{
    try_aggregate, try_merge_partials, AdaptiveParams, AggStream, AggregateConfig, ExecEnv,
    MemoryBudget, ObsConfig, OpStats, Strategy,
};
use hsa_obs::{Counter, LevelCounter, Phase};
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

fn small_cfg(strategy: Strategy, threads: usize) -> AggregateConfig {
    AggregateConfig {
        cache_bytes: 64 << 10,
        threads,
        strategy,
        fill_percent: 25,
        morsel_rows: 4096,
    }
}

fn workload(rng: &mut Rng, rows: usize, k: u64) -> (Vec<u64>, Vec<u64>) {
    let keys = (0..rows).map(|_| rng.below(k)).collect();
    let vals = (0..rows).map(|_| rng.below(1000)).collect();
    (keys, vals)
}

/// Cut `[0, n)` into randomized chunk lengths, deliberately including
/// empty and 1-row chunks.
fn random_cuts(rng: &mut Rng, n: usize) -> Vec<(usize, usize)> {
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < n {
        let len = match rng.below(5) {
            0 => 0,
            1 => 1,
            2 => rng.below(64) as usize,
            _ => rng.below(10_000) as usize,
        }
        .min(n - at);
        cuts.push((at, at + len));
        at += len;
    }
    if cuts.is_empty() {
        cuts.push((0, 0));
    }
    cuts
}

fn run_streamed(
    keys: &[u64],
    vals: &[u64],
    specs: &[AggSpec],
    cfg: &AggregateConfig,
    cuts: &[(usize, usize)],
) -> (Vec<(u64, Vec<u64>)>, OpStats) {
    let mut stream =
        AggStream::new(specs, cfg, &ExecEnv::unrestricted(), &ObsConfig::disabled()).unwrap();
    for &(a, b) in cuts {
        stream.push(&keys[a..b], &[&vals[a..b]]).unwrap();
    }
    let (out, report) = stream.finish().unwrap();
    (out.sorted_rows(), report.stats)
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::HashingOnly,
        Strategy::PartitionAlways { passes: 1 },
        Strategy::PartitionAlways { passes: 2 },
        Strategy::Adaptive(AdaptiveParams::default()),
    ]
}

#[test]
fn streaming_equals_oneshot() {
    let mut rng = Rng(0x5eed_cafe);
    let specs = [AggSpec::count(), AggSpec::sum(0), AggSpec::max(0)];
    for case in 0..24 {
        let rows = match rng.below(4) {
            0 => 0,
            1 => 1 + rng.below(50) as usize,
            _ => 1000 + rng.below(40_000) as usize,
        };
        let k = 1 + rng.below(20_000);
        let (keys, vals) = workload(&mut rng, rows, k);
        let cuts = random_cuts(&mut rng, rows);
        let strategy = strategies()[rng.below(4) as usize];
        let threads = 1 + rng.below(3) as usize;
        let cfg = small_cfg(strategy, threads);

        let (whole, _) =
            try_aggregate(&keys, &[&vals], &specs, &cfg, &ExecEnv::unrestricted()).unwrap();
        let (streamed, _) = run_streamed(&keys, &vals, &specs, &cfg, &cuts);
        assert_eq!(
            streamed,
            whole.sorted_rows(),
            "case {case}: rows {rows} k {k} {strategy:?} threads {threads} chunks {}",
            cuts.len()
        );
    }
}

/// The slice entry points are one-chunk streams, so a single `push` of
/// the whole input must reproduce the one-shot `OpStats` bit-for-bit
/// (timings aside). Multi-chunk streams run one morsel scope per push,
/// which changes the order the scheduler drains morsels in — that can
/// move a seal by a few rows, so across arbitrary cuts only the conserved
/// quantities are asserted: every input row is hashed at level 0 exactly
/// once, and no budget/fault counter ever fires on the clean path.
#[test]
fn single_push_stats_match_slice_api_and_conserved_fields_survive_chunking() {
    let mut rng = Rng(0xfeed_f00d);
    let specs = [AggSpec::count(), AggSpec::sum(0)];
    let (keys, vals) = workload(&mut rng, 30_000, 5_000);
    let zero_nanos = |mut s: OpStats| {
        s.task_nanos_per_level.iter_mut().for_each(|n| *n = 0);
        s
    };

    for strategy in [Strategy::HashingOnly, Strategy::PartitionAlways { passes: 1 }] {
        let cfg = small_cfg(strategy, 1);
        let (out, base) =
            try_aggregate(&keys, &[&vals], &specs, &cfg, &ExecEnv::unrestricted()).unwrap();

        // One chunk == the slice path: identical stats.
        let (rows, streamed) = run_streamed(&keys, &vals, &specs, &cfg, &[(0, keys.len())]);
        assert_eq!(rows, out.sorted_rows(), "{strategy:?}");
        assert_eq!(zero_nanos(streamed), zero_nanos(base.clone()), "{strategy:?}");

        // Arbitrary cuts: conserved fields only.
        for _ in 0..3 {
            let cuts = random_cuts(&mut rng, keys.len());
            let (_, s) = run_streamed(&keys, &vals, &specs, &cfg, &cuts);
            match strategy {
                Strategy::HashingOnly => {
                    assert_eq!(s.hash_rows_per_level[0], keys.len() as u64)
                }
                _ => assert_eq!(s.part_rows_per_level[0], keys.len() as u64),
            }
            assert_eq!(s.budget_denials, 0);
            assert_eq!(s.budget_downgrades, 0);
            assert_eq!(s.spilled_runs(), 0);
            assert_eq!(s.contained_panics, 0);
            assert_eq!(s.cancellations, 0);
        }
    }
}

/// Streaming under a budget + spill dir: same answer, bounded memory, and
/// the spill counters show up in the stats.
#[test]
fn streaming_spills_under_budget_and_matches() {
    let dir = std::env::temp_dir().join(format!("hsa-streamtest-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = Rng(0xdead_beef);
    let specs = [AggSpec::sum(0), AggSpec::min(0)];
    let (keys, vals) = workload(&mut rng, 80_000, 30_000);
    let cfg = small_cfg(Strategy::Adaptive(AdaptiveParams::default()), 2);

    let (whole, _) =
        try_aggregate(&keys, &[&vals], &specs, &cfg, &ExecEnv::unrestricted()).unwrap();

    let budget = MemoryBudget::limited(3 << 20);
    let env = ExecEnv::unrestricted().with_budget(budget.clone()).with_spill_dir(&dir);
    let mut stream = AggStream::new(&specs, &cfg, &env, &ObsConfig::disabled()).unwrap();
    for chunk in keys.chunks(4096).zip(vals.chunks(4096)) {
        stream.push(chunk.0, &[chunk.1]).unwrap();
    }
    let (out, report) = stream.finish().unwrap();
    assert_eq!(out.sorted_rows(), whole.sorted_rows());
    assert_eq!(budget.outstanding(), 0);
    assert!(report.stats.spilled_runs() > 0, "stats: {:?}", report.stats);
    assert_eq!(report.stats.restored_runs, report.stats.spilled_runs());
    assert_eq!(report.stats.restored_bytes, report.stats.spilled_bytes);
    // Every spill file is consumed (deleted on restore) by the end.
    let leftover = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftover, 0, "spill files must not outlive the stream");
    let _ = std::fs::remove_dir_all(&dir);
}

/// When one cache-sized table absorbs the whole input "the recursion
/// stops automatically" (§5) at level 0: no seal, no level-1 rows — and
/// the groups are the ones every other route to the answer produces.
#[test]
fn single_table_input_stops_at_level_zero() {
    let mut rng = Rng(0x0051_0b57);
    let specs = [AggSpec::count(), AggSpec::sum(0)];
    // 300 groups sit well inside the 512-group fill limit of the table.
    let (keys, vals) = workload(&mut rng, 30_000, 300);
    let adaptive = Strategy::Adaptive(AdaptiveParams::default());

    let one = small_cfg(adaptive, 1);
    let (rows, stats) = run_streamed(&keys, &vals, &specs, &one, &[(0, keys.len())]);
    assert_eq!(stats.seals, 0, "stats: {stats:?}");
    assert_eq!(stats.passes_used(), 1, "stats: {stats:?}");
    assert_eq!(stats.hash_rows_per_level[0], keys.len() as u64);
    assert_eq!(stats.total_hash_rows() + stats.total_part_rows(), keys.len() as u64);

    // Two workers may or may not both claim morsels; either way the
    // output is the same.
    let two = small_cfg(adaptive, 2);
    let (rows2, _) = run_streamed(&keys, &vals, &specs, &two, &[(0, keys.len())]);
    assert_eq!(rows2, rows);
    for _ in 0..3 {
        let cuts = random_cuts(&mut rng, keys.len());
        let (chunked, s) = run_streamed(&keys, &vals, &specs, &one, &cuts);
        assert_eq!(chunked, rows);
        assert_eq!(s.seals, 0, "chunking must not introduce a seal: {s:?}");
    }
}

/// A run's length is set by how much its owner partitioned, so the grain
/// the input arrives in — morsel length, worker count, push cuts, raw rows
/// or pre-aggregated partials — must be invisible in the output and in the
/// row accounting: every level consumes exactly the rows the level above
/// produced, every spilled run comes back, and the budget reads zero at
/// the end. Whether deep metrics are collected must be invisible too: the
/// statistics are lowered from counters that are always on, and with
/// metrics the per-worker shards sum to them.
#[test]
fn morsel_worker_and_push_grain_are_invisible() {
    const N: usize = 40_000;
    let dir = std::env::temp_dir().join(format!("hsa-stream-grain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = Rng(0x0060_7a11);
    // Three inputs feed the four states (the same values under each, so
    // the oracle stays one map): raw rows travel as key + three columns.
    let specs = [AggSpec::count(), AggSpec::sum(0), AggSpec::min(1), AggSpec::max(2)];
    // Nearly as many groups as rows: ADAPTIVE hashes, seals, switches to
    // PARTITIONING and recurses, so sealed and partitioned runs meet in
    // the same buckets.
    let (keys, vals) = workload(&mut rng, N, 25_000);
    let mut oracle: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
    for (&k, &v) in keys.iter().zip(&vals) {
        let e = oracle.entry(k).or_insert([0, 0, u64::MAX, 0]);
        *e = [e[0] + 1, e[1] + v, e[2].min(v), e[3].max(v)];
    }
    let expect: Vec<(u64, Vec<u64>)> = oracle.into_iter().map(|(k, s)| (k, s.to_vec())).collect();
    // What a run counts, as opposed to what it times.
    let counted = |s: &OpStats| {
        let mut s = s.clone();
        s.task_nanos_per_level.clear();
        s.overlapped_io_nanos = 0;
        s.spill_io_wait_nanos = 0;
        s
    };

    for (case, morsel_rows) in [1 << 8, 1 << 12, 1 << 16, N].into_iter().enumerate() {
        for threads in [1, 2, 4] {
            let strategy = strategies()[(case + threads) % 4];
            let cfg = AggregateConfig { morsel_rows, ..small_cfg(strategy, threads) };
            let tag = format!("morsel {morsel_rows} threads {threads} {strategy:?}");
            // One worker makes the budget's verdicts repeatable, so that
            // is where the rows are made to spill: 1.5 MiB holds the 1 MiB
            // of output blocks but not the intermediate runs beside them.
            let budget = MemoryBudget::limited(1 << 32);
            let env = ExecEnv::unrestricted().with_budget(budget.clone());
            let spills = threads == 1;
            let (raw_budget, raw_env) = if spills {
                let tight = MemoryBudget::limited(3 << 19);
                (tight.clone(), ExecEnv::unrestricted().with_budget(tight).with_spill_dir(&dir))
            } else {
                (budget.clone(), env.clone())
            };
            let cuts = random_cuts(&mut rng, N);

            // Raw rows, pushed in random cuts: unobserved, then observed.
            let mut unobserved = None;
            for metrics in [false, true] {
                let tag = format!("{tag} metrics {metrics}");
                let obs = ObsConfig { metrics, ..ObsConfig::disabled() };
                let mut stream = AggStream::new(&specs, &cfg, &raw_env, &obs).unwrap();
                for &(a, b) in &cuts {
                    stream.push(&keys[a..b], &[&vals[a..b]; 3]).unwrap();
                }
                let (out, report) = stream.finish().unwrap();
                assert_eq!(out.sorted_rows(), expect, "{tag}: raw output");
                drop(out);
                assert_eq!(raw_budget.outstanding(), 0, "{tag}: raw run leaked reservations");
                let stats = &report.stats;
                assert_eq!(
                    stats.hash_rows_per_level[0] + stats.part_rows_per_level[0],
                    N as u64,
                    "{tag}: level 0 consumes every row once"
                );
                assert_eq!(stats.spilled_runs() > 0, spills, "{tag}: {stats:?}");
                assert_eq!(stats.restored_runs, stats.spilled_runs(), "{tag}");
                assert_eq!(stats.restored_bytes, stats.spilled_bytes, "{tag}");
                if !metrics {
                    assert!(report.metrics.is_none() && report.profile.is_none(), "{tag}");
                    unobserved = Some(counted(stats));
                    continue;
                }
                if threads == 1 {
                    // One worker claims the morsels in order: the run
                    // repeats exactly, observed or not.
                    assert_eq!(Some(counted(stats)), unobserved, "{tag}: observing changed counts");
                }

                // The shards sum to the totals, level by level.
                let snapshot = report.metrics.as_ref().expect("metrics requested");
                let shard_sum = |c: LevelCounter| -> Vec<u64> {
                    let cells = snapshot.workers.iter().map(|w| w.level_counter(c));
                    cells.fold(vec![0; stats.hash_rows_per_level.len()], |mut sum, cells| {
                        sum.iter_mut().zip(cells).for_each(|(s, c)| *s += c);
                        sum
                    })
                };
                assert_eq!(snapshot.workers.len(), threads, "{tag}");
                assert_eq!(shard_sum(LevelCounter::HashRows), stats.hash_rows_per_level, "{tag}");
                assert_eq!(shard_sum(LevelCounter::PartRows), stats.part_rows_per_level, "{tag}");
                assert_eq!(shard_sum(LevelCounter::TaskNanos), stats.task_nanos_per_level, "{tag}");
                assert_eq!(
                    shard_sum(LevelCounter::SpilledRuns),
                    stats.spilled_runs_per_level,
                    "{tag}"
                );
                let shard_total =
                    |c: Counter| snapshot.workers.iter().map(|w| w.counter(c)).sum::<u64>();
                assert_eq!(shard_total(Counter::TablesSealed), stats.seals, "{tag}");
                assert_eq!(shard_total(Counter::RestoredRuns), stats.restored_runs, "{tag}");
                assert_eq!(shard_total(Counter::BudgetDenials), stats.budget_denials, "{tag}");

                // Every partitioned value was written once. Raw rows — all
                // of level 0 — move the key and the three inputs the
                // states read; partials move the key and four states.
                let metrics = snapshot.merged();
                let profile = report.profile.as_ref().expect("profile rides with metrics");
                let part_bytes = |lvl: usize| profile.cell(lvl, Phase::Partition).bytes;
                assert_eq!(part_bytes(0), stats.part_rows_per_level[0] * 8 * 4, "{tag}");
                for lvl in 1..profile.levels_used() {
                    let rows = stats.part_rows_per_level[lvl];
                    let (raw, partials) = (rows * 8 * 4, rows * 8 * (1 + specs.len() as u64));
                    assert!((raw..=partials).contains(&part_bytes(lvl)), "{tag}: level {lvl}");
                }
                let cell_bytes: u64 = (0..profile.levels_used()).map(part_bytes).sum();
                assert_eq!(metrics.counter(Counter::PartBytes), cell_bytes, "{tag}");
                for lvl in 0..profile.levels_used() {
                    let hashed = profile.cell(lvl, Phase::HashInsert).rows_in;
                    let partitioned = profile.cell(lvl, Phase::Partition).rows_in;
                    assert_eq!(hashed, stats.hash_rows_per_level[lvl], "{tag}: level {lvl}");
                    assert_eq!(partitioned, stats.part_rows_per_level[lvl], "{tag}: level {lvl}");
                    if lvl > 0 {
                        let from_above = profile.cell(lvl - 1, Phase::Seal).rows_out
                            + profile.cell(lvl - 1, Phase::Partition).rows_out;
                        let merged = profile.cell(lvl, Phase::GrowMerge).rows_in;
                        assert_eq!(
                            hashed + partitioned + merged,
                            from_above,
                            "{tag}: rows entering level {lvl}"
                        );
                    }
                }
            }

            // The same cuts aggregated one by one, then merged: the
            // stream's rows are partial aggregates.
            let partials: Vec<_> = cuts
                .iter()
                .map(|&(a, b)| {
                    try_aggregate(&keys[a..b], &[&vals[a..b]; 3], &specs, &cfg, &env).unwrap().0
                })
                .collect();
            let partial_rows: usize = partials.iter().map(|p| p.n_groups()).sum();
            let refs: Vec<_> = partials.iter().collect();
            let (merged, stats) = try_merge_partials(&refs, &specs, &cfg, &env).unwrap();
            assert_eq!(merged.sorted_rows(), expect, "{tag}: merged output");
            assert_eq!(
                stats.hash_rows_per_level[0] + stats.part_rows_per_level[0],
                partial_rows as u64,
                "{tag}: level 0 consumes every partial once"
            );
            drop((partials, merged));
            assert_eq!(budget.outstanding(), 0, "{tag}: merge leaked reservations");
        }
    }
    let leftover = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftover, 0, "spill files must not outlive their streams");
    let _ = std::fs::remove_dir_all(&dir);
}
