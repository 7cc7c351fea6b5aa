//! Deterministic fault-injection sweep (the robustness acceptance suite).
//!
//! A [`FaultPlan`] names an injection point by ordinal — fail the Nth
//! memory reservation, panic in the Nth operator task, cancel after K
//! input rows. Sweeping N over a fixed workload visits every reservation
//! and every task of the run. For each injection this suite asserts
//!
//! 1. the operator returns the matching [`AggError`] variant (no panic
//!    escapes, no wrong-variant mapping),
//! 2. the shared [`MemoryBudget`] reports zero outstanding bytes after
//!    the failure (every reservation was released on the error path), and
//! 3. an immediately following un-injected run against the *same* budget
//!    succeeds and matches a `BTreeMap` reference — the failure leaked
//!    nothing that poisons later runs.

use hsa_agg::AggSpec;
use hsa_core::{
    try_aggregate, AggError, AggregateConfig, CancelReason, CancelToken, ExecEnv, FaultInjector,
    FaultPlan, GroupByOutput, MemoryBudget, Strategy,
};
use std::collections::BTreeMap;
use std::time::Duration;

mod common;

const ROWS: usize = 20_000;
/// More groups than the 512 one 64 KiB table of [`config`] holds: tables
/// seal mid-input, so the run has bucket tasks to inject into whichever
/// workers claim the morsels (an input that fits one table is emitted
/// without a task when only one worker ran).
const GROUPS: u64 = 1_009;

fn workload() -> (Vec<u64>, Vec<u64>) {
    let keys: Vec<u64> = (0..ROWS as u64).map(|i| (i.wrapping_mul(2654435761)) % GROUPS).collect();
    let vals: Vec<u64> = (0..ROWS as u64).collect();
    (keys, vals)
}

/// COUNT(*), SUM(v) per key via a reference map.
fn reference(keys: &[u64], vals: &[u64]) -> BTreeMap<u64, (u64, u64)> {
    let mut m = BTreeMap::new();
    for (&k, &v) in keys.iter().zip(vals) {
        let e = m.entry(k).or_insert((0u64, 0u64));
        e.0 += 1;
        e.1 += v;
    }
    m
}

fn assert_matches_reference(out: &GroupByOutput, keys: &[u64], vals: &[u64]) {
    let expect = reference(keys, vals);
    let rows = out.sorted_rows();
    assert_eq!(rows.len(), expect.len(), "group count");
    for ((key, cols), (ek, (count, sum))) in rows.iter().zip(&expect) {
        assert_eq!(key, ek);
        assert_eq!(cols.as_slice(), &[*count, *sum], "key {key}");
    }
}

/// Small tables + small morsels: many reservations, many tasks, real
/// recursion — the densest set of injection points we can get cheaply.
fn config() -> AggregateConfig {
    AggregateConfig {
        cache_bytes: 64 << 10,
        threads: 2,
        morsel_rows: 4096,
        ..AggregateConfig::default()
    }
}

fn specs() -> Vec<AggSpec> {
    vec![AggSpec::count(), AggSpec::sum(0)]
}

/// Run once under `env`, asserting the budget drains to zero afterwards.
fn run_under(
    env: &ExecEnv,
    budget: &MemoryBudget,
    keys: &[u64],
    vals: &[u64],
) -> Result<GroupByOutput, AggError> {
    let r = try_aggregate(keys, &[vals], &specs(), &config(), env);
    assert_eq!(budget.outstanding(), 0, "reservations leaked across the call");
    r.map(|(out, _)| out)
}

/// After any failure, the same budget must still support a clean run.
fn assert_recovers(budget: &MemoryBudget, keys: &[u64], vals: &[u64]) {
    let env = ExecEnv::unrestricted().with_budget(budget.clone());
    let out = run_under(&env, budget, keys, vals).expect("un-injected run after a failure");
    assert_matches_reference(&out, keys, vals);
}

#[test]
fn sweep_failing_every_allocation() {
    let (keys, vals) = workload();
    let budget = MemoryBudget::limited(1 << 30);
    let mut failures = 0u64;
    for n in 1..10_000 {
        let plan = FaultPlan { fail_alloc: Some(n), ..FaultPlan::none() };
        let env = ExecEnv::unrestricted()
            .with_budget(budget.clone())
            .with_faults(FaultInjector::new(plan));
        match run_under(&env, &budget, &keys, &vals) {
            Ok(out) => {
                // The plan's ordinal is past the last reservation of the
                // run: nothing fired, the result must be correct.
                assert_matches_reference(&out, &keys, &vals);
                assert!(failures > 0, "sweep never hit a reservation");
                assert!(n > failures, "sweep: {failures} failures before first pass at n={n}");
                return;
            }
            Err(AggError::BudgetExceeded { limit: 0, .. }) => {
                failures += 1;
                assert_recovers(&budget, &keys, &vals);
            }
            Err(other) => panic!("injected allocation failure surfaced as {other:?}"),
        }
    }
    panic!("allocation sweep did not terminate");
}

#[test]
fn sweep_panicking_in_every_task() {
    // Injected panics are expected: keep them off the test's stderr, but
    // let anything else through untouched.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
        let injected = msg.is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let (keys, vals) = workload();
    let budget = MemoryBudget::limited(1 << 30);
    let mut panics = 0u64;
    for n in 1..10_000 {
        let plan = FaultPlan { panic_in_task: Some(n), ..FaultPlan::none() };
        let env = ExecEnv::unrestricted()
            .with_budget(budget.clone())
            .with_faults(FaultInjector::new(plan));
        match run_under(&env, &budget, &keys, &vals) {
            Ok(out) => {
                assert_matches_reference(&out, &keys, &vals);
                assert!(panics > 0, "sweep never hit a task");
                let _ = std::panic::take_hook();
                return;
            }
            Err(AggError::WorkerPanic { message }) => {
                assert!(message.contains("injected fault"), "unexpected panic text {message:?}");
                panics += 1;
                assert_recovers(&budget, &keys, &vals);
            }
            Err(other) => panic!("injected task panic surfaced as {other:?}"),
        }
    }
    panic!("task-panic sweep did not terminate");
}

#[test]
fn cancel_after_row_thresholds() {
    let (keys, vals) = workload();
    let budget = MemoryBudget::limited(1 << 30);
    for threshold in [1, ROWS as u64 / 2, ROWS as u64] {
        let plan = FaultPlan { cancel_after_rows: Some(threshold), ..FaultPlan::none() };
        let env = ExecEnv::unrestricted()
            .with_budget(budget.clone())
            .with_faults(FaultInjector::new(plan));
        match run_under(&env, &budget, &keys, &vals) {
            Err(AggError::Cancelled(CancelReason::Requested)) => {}
            other => panic!("cancel after {threshold} rows: got {other:?}"),
        }
        assert_recovers(&budget, &keys, &vals);
    }
}

#[test]
fn expired_deadline_cancels() {
    let (keys, vals) = workload();
    let budget = MemoryBudget::limited(1 << 30);
    let env = ExecEnv::unrestricted()
        .with_budget(budget.clone())
        .with_cancel(CancelToken::with_timeout(Duration::ZERO));
    match run_under(&env, &budget, &keys, &vals) {
        Err(AggError::Cancelled(CancelReason::DeadlineExceeded)) => {}
        other => panic!("expired deadline: got {other:?}"),
    }
    assert_recovers(&budget, &keys, &vals);
}

#[test]
fn pre_cancelled_token_stops_immediately() {
    let (keys, vals) = workload();
    let budget = MemoryBudget::limited(1 << 30);
    let token = CancelToken::new();
    token.cancel();
    let env = ExecEnv::unrestricted().with_budget(budget.clone()).with_cancel(token);
    match run_under(&env, &budget, &keys, &vals) {
        Err(AggError::Cancelled(CancelReason::Requested)) => {}
        other => panic!("pre-cancelled token: got {other:?}"),
    }
    assert_recovers(&budget, &keys, &vals);
}

#[test]
fn modest_budget_degrades_but_stays_correct() {
    let (keys, vals) = workload();
    // Tables want 8 MiB each; the budget only allows much smaller ones.
    // The operator must shrink (or fall back to partitioning), record the
    // downgrades, and still produce the right answer.
    let cfg = AggregateConfig {
        cache_bytes: 8 << 20,
        threads: 1,
        morsel_rows: 4096,
        ..AggregateConfig::default()
    };
    let budget = MemoryBudget::limited(6 << 20);
    let env = ExecEnv::unrestricted().with_budget(budget.clone());
    let (out, stats) =
        try_aggregate(&keys, &[&vals], &specs(), &cfg, &env).expect("degraded run succeeds");
    assert_eq!(budget.outstanding(), 0);
    assert!(stats.budget_downgrades > 0, "expected at least one recorded downgrade");
    assert!(budget.denials() > 0, "expected the full-size reservation to be denied");
    assert_matches_reference(&out, &keys, &vals);
}

#[test]
fn hard_exhaustion_fails_cleanly() {
    let (keys, vals) = workload();
    let budget = MemoryBudget::limited(1 << 10);
    let env = ExecEnv::unrestricted().with_budget(budget.clone());
    match run_under(&env, &budget, &keys, &vals) {
        Err(AggError::BudgetExceeded { limit, .. }) => assert_eq!(limit, 1 << 10),
        other => panic!("1 KiB budget: got {other:?}"),
    }
    assert!(budget.denials() > 0);
}

fn spill_env(budget: &MemoryBudget, dir: &std::path::Path) -> ExecEnv {
    ExecEnv::unrestricted().with_budget(budget.clone()).with_spill_dir(dir)
}

/// A budget that hard-fails the in-memory run must instead complete once a
/// spill directory turns seal denials into downgrades.
#[test]
fn spill_dir_turns_exhaustion_into_success() {
    let dir = std::env::temp_dir().join(format!("hsa-fault-spill-ok-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Dense: enough groups that sealed runs carry real weight.
    let keys: Vec<u64> = (0..30_000u64).map(|i| (i.wrapping_mul(2654435761)) % 10_000).collect();
    let vals: Vec<u64> = (0..30_000u64).collect();
    let budget = MemoryBudget::limited(1 << 20);

    // This budget is fatal in memory; with a spill dir the same budget
    // must succeed.
    let env = ExecEnv::unrestricted().with_budget(budget.clone());
    let r = try_aggregate(&keys, &[&vals], &specs(), &config(), &env);
    assert!(matches!(r, Err(AggError::BudgetExceeded { .. })), "in-memory control run: {r:?}");

    let env = spill_env(&budget, &dir);
    let (out, stats) = try_aggregate(&keys, &[&vals], &specs(), &config(), &env)
        .expect("spill-enabled run under a tight budget");
    assert_eq!(budget.outstanding(), 0);
    assert!(stats.spilled_runs() > 0, "budget never forced a spill: {stats:?}");
    assert_eq!(stats.restored_runs, stats.spilled_runs(), "every spilled run is read back");
    assert_matches_reference(&out, &keys, &vals);
    let leftover = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftover, 0, "scratch files must be deleted after the run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sweep an injected I/O failure over every spill-file write of a run that
/// depends on spilling: each must surface as `SpillFailed`, leak nothing,
/// and leave the budget reusable.
///
/// The workload keeps the sweep short by design: a few dozen distinct
/// keys touch as many hash digits, the table seals once mid-run and once
/// as the leftover flush, and the budget is sized to admit the worker
/// tables but deny the seal reservations — every spill write of the run is
/// one of those two seals' digit flushes.
#[test]
fn sweep_failing_every_spill() {
    let dir = std::env::temp_dir().join(format!("hsa-fault-spill-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (keys, vals) = common::mid_input_seal_workload();
    let cfg = AggregateConfig { threads: 1, ..config() };
    let budget = MemoryBudget::limited(96 << 10);

    let clean_run = |budget: &MemoryBudget| {
        let env = spill_env(budget, &dir);
        let (out, stats) =
            try_aggregate(&keys, &[&vals], &specs(), &cfg, &env).expect("un-injected spill run");
        assert_eq!(budget.outstanding(), 0);
        assert_matches_reference(&out, &keys, &vals);
        stats
    };
    let stats = clean_run(&budget);
    assert!(stats.spilled_runs() > 0, "sweep workload does not spill: {stats:?}");
    assert!(stats.spilled_runs() <= 256, "sweep would be too slow: {stats:?}");

    let mut failures = 0u64;
    for n in 1..10_000 {
        let plan = FaultPlan { fail_spill: Some(n), ..FaultPlan::none() };
        let env = spill_env(&budget, &dir).with_faults(FaultInjector::new(plan));
        let r = try_aggregate(&keys, &[&vals], &specs(), &cfg, &env);
        assert_eq!(budget.outstanding(), 0, "reservations leaked across the call");
        match r {
            Ok((out, _)) => {
                // The ordinal is past the last spill of the run: nothing
                // fired, the result must be correct.
                assert_matches_reference(&out, &keys, &vals);
                assert!(failures > 0, "sweep never hit a spill write");
                assert!(n > failures, "sweep: {failures} failures before first pass at n={n}");
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
            Err(AggError::SpillFailed { message }) => {
                assert!(message.contains("injected fault"), "unexpected spill error {message:?}");
                failures += 1;
                // The same budget and spill dir must still support a clean
                // run after the injected I/O failure.
                clean_run(&budget);
            }
            Err(other) => panic!("injected spill failure surfaced as {other:?}"),
        }
    }
    panic!("spill sweep did not terminate");
}

/// Partition-only workload for the partition writer's budget path: every
/// row is partitioned at level 0 by one worker's writer and grow-merged at
/// level 1, so the writer's reservations and spill batches are most of
/// the run's injection sites. The keys touch [`WRITER_DIGITS`] level-0
/// digits only, which keeps the ordinal sweeps short.
fn writer_workload() -> (Vec<u64>, Vec<u64>, AggregateConfig) {
    use hsa_hash::{digit, Hasher64, Murmur2};
    let hasher = Murmur2::default();
    let groups: Vec<u64> =
        (0u64..).filter(|&k| digit(hasher.hash_u64(k), 0) < WRITER_DIGITS).take(2_000).collect();
    let keys = (0..ROWS).map(|i| groups[i.wrapping_mul(2654435761) % groups.len()]).collect();
    let vals = (0..ROWS as u64).collect();
    let cfg = AggregateConfig {
        strategy: Strategy::PartitionAlways { passes: 1 },
        threads: 1,
        ..config()
    };
    (keys, vals, cfg)
}

const WRITER_DIGITS: usize = 32;
/// Holds about half of [`writer_workload`]'s partitioned rows: raw rows
/// of `COUNT(*), SUM(v)` travel as the key and `v`, 16 bytes each.
const WRITER_BUDGET: u64 = 256 << 10;

/// A denied writer with a spill directory lets go of everything it holds
/// — runs as long as the worker's share so far, not one morsel's — and
/// carries on from an empty budget; without a directory the same denial
/// is the query's error.
#[test]
fn a_denied_partition_writer_spills_its_whole_content() {
    let dir = std::env::temp_dir().join(format!("hsa-fault-writer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (keys, vals, cfg) = writer_workload();
    let budget = MemoryBudget::limited(WRITER_BUDGET);

    let env = ExecEnv::unrestricted().with_budget(budget.clone());
    match try_aggregate(&keys, &[&vals], &specs(), &cfg, &env) {
        Err(AggError::BudgetExceeded { limit, .. }) => assert_eq!(limit, WRITER_BUDGET),
        other => panic!("no spill directory: got {other:?}"),
    }
    assert_eq!(budget.outstanding(), 0, "the failed stream's writer kept bytes");

    let (out, stats) = try_aggregate(&keys, &[&vals], &specs(), &cfg, &spill_env(&budget, &dir))
        .expect("the same budget with a spill directory");
    assert_matches_reference(&out, &keys, &vals);
    assert_eq!(budget.outstanding(), 0);
    common::assert_dir_empty(&dir);
    assert_eq!(stats.part_rows_per_level[0], ROWS as u64);
    assert_eq!(stats.restored_runs, stats.spilled_runs(), "every spilled run is read back");
    assert!(stats.budget_downgrades > 0, "the budget never denied the writer: {stats:?}");
    // One batch per denial: at most one run per digit each time …
    assert!(
        stats.spilled_runs() <= WRITER_DIGITS as u64 * stats.budget_downgrades,
        "a denial spilled more than the writer's one run per digit: {stats:?}"
    );
    // … and each holds several morsels' rows of its digit.
    let morsel_share = (config().morsel_rows / WRITER_DIGITS * 8 * 2) as u64;
    assert!(
        stats.spilled_bytes > 2 * morsel_share * stats.spilled_runs(),
        "spilled runs are no longer than a morsel's share: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The allocation and spill ordinals reach the writer's own sites: its
/// top-up after every morsel, its hand-off, and each spill batch.
#[test]
fn sweep_failing_every_partition_writer_site() {
    let dir = std::env::temp_dir().join(format!("hsa-fault-writer-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (keys, vals, cfg) = writer_workload();
    let budget = MemoryBudget::limited(WRITER_BUDGET);
    let run = |plan: FaultPlan| {
        let env = spill_env(&budget, &dir).with_faults(FaultInjector::new(plan));
        let r = try_aggregate(&keys, &[&vals], &specs(), &cfg, &env);
        assert_eq!(budget.outstanding(), 0, "reservations leaked across the call");
        common::assert_dir_empty(&dir);
        r.map(|(out, stats)| {
            assert_matches_reference(&out, &keys, &vals);
            stats
        })
    };
    let clean = run(FaultPlan::none()).expect("un-injected run");
    assert!(clean.budget_downgrades > 0 && clean.spilled_runs() > 0, "{clean:?}");

    let sweep =
        |what: &str, plan_of: &dyn Fn(u64) -> FaultPlan, fired: &dyn Fn(&AggError) -> bool| {
            for n in 1..10_000 {
                match run(plan_of(n)) {
                    // Past the last site of the run: nothing fired.
                    Ok(_) => return n - 1,
                    Err(e) if fired(&e) => {
                        run(FaultPlan::none()).expect("clean run after an injected failure");
                    }
                    Err(other) => panic!("injected {what} failure {n} surfaced as {other:?}"),
                }
            }
            panic!("{what} sweep did not terminate");
        };
    let allocs =
        sweep("allocation", &|n| FaultPlan { fail_alloc: Some(n), ..FaultPlan::none() }, &|e| {
            matches!(e, AggError::BudgetExceeded { limit: 0, .. })
        });
    let morsels = (ROWS / config().morsel_rows) as u64;
    assert!(allocs > morsels, "only {allocs} reservations: the writer's were not reached");
    let spills = sweep(
        "spill",
        &|n| FaultPlan { fail_spill: Some(n), ..FaultPlan::none() },
        &|e| matches!(e, AggError::SpillFailed { message } if message.contains("injected fault")),
    );
    assert_eq!(spills, clean.budget_downgrades, "one spill batch per denial");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stream dropped between pushes — poisoned or abandoned — with rows
/// both spilled and still in its writer gives back every byte and file.
#[test]
fn dropping_a_stream_mid_input_leaks_neither_bytes_nor_files() {
    use hsa_core::{AggStream, ObsConfig, SpillConfig};
    let dir = std::env::temp_dir().join(format!("hsa-fault-writer-drop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (keys, vals, cfg) = writer_workload();
    let budget = MemoryBudget::limited(WRITER_BUDGET);
    // In-line I/O: a spilled batch is a file by the time `push` returns.
    let env = spill_env(&budget, &dir).with_spill_config(SpillConfig { io_threads: 0 });
    let mut stream = AggStream::new(&specs(), &cfg, &env, &ObsConfig::disabled()).unwrap();
    let scratch = || {
        std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".bin"))
            .count()
    };
    let mut pushes = keys.chunks(4096).zip(vals.chunks(4096));
    while scratch() == 0 {
        let (k, v) = pushes.next().expect("the budget denies the writer before the input ends");
        stream.push(k, &[v]).unwrap();
    }
    let (k, v) = pushes.next().expect("input left after the first spill");
    stream.push(k, &[v]).unwrap();
    assert!(budget.outstanding() > 0, "the writer holds the rows pushed since the spill");
    drop(stream);
    assert_eq!(budget.outstanding(), 0);
    common::assert_dir_empty(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hand_built_spec_without_input_is_rejected() {
    let spec = hsa_agg::AggSpec { func: hsa_agg::AggFn::Sum, input: None };
    let r = try_aggregate(&[1, 2], &[], &[spec], &config(), &ExecEnv::unrestricted());
    assert!(matches!(r, Err(AggError::SpecNeedsInput { spec: 0 })), "{r:?}");
}

#[test]
fn unlimited_env_is_the_default_path() {
    let (keys, vals) = workload();
    let env = ExecEnv::unrestricted();
    let (out, _) = try_aggregate(&keys, &[&vals], &specs(), &config(), &env).unwrap();
    assert_matches_reference(&out, &keys, &vals);
}

#[test]
fn every_strategy_respects_the_environment() {
    let (keys, vals) = workload();
    for strategy in [Strategy::HashingOnly, Strategy::PartitionAlways { passes: 1 }] {
        let mut cfg = config();
        cfg.strategy = strategy;
        let budget = MemoryBudget::limited(1 << 30);
        let env = ExecEnv::unrestricted().with_budget(budget.clone());
        let (out, _) = try_aggregate(&keys, &[&vals], &specs(), &cfg, &env)
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(budget.outstanding(), 0, "{strategy:?} leaked reservations");
        assert_matches_reference(&out, &keys, &vals);

        let tiny = MemoryBudget::limited(1 << 10);
        let env = ExecEnv::unrestricted().with_budget(tiny.clone());
        let r = try_aggregate(&keys, &[&vals], &specs(), &cfg, &env);
        assert!(
            matches!(r, Err(AggError::BudgetExceeded { .. })),
            "{strategy:?} under 1 KiB: {r:?}"
        );
        assert_eq!(tiny.outstanding(), 0);
    }
}
