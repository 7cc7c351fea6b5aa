//! End-to-end observability: a real adaptive run must produce non-trivial
//! deep metrics (probe lengths, partition bytes, scheduler counters, per-switch
//! α) and a loadable Chrome trace, while the disabled path stays empty.

use hsa_agg::AggSpec;
use hsa_core::{
    try_aggregate_observed, AdaptiveParams, AggStream, AggregateConfig, ExecEnv, GroupByOutput,
    ObsConfig, RunReport, Strategy,
};
use hsa_obs::json::JsonValue;
use hsa_obs::{json, Counter, Hist, Phase};

/// The observed entry point under an unrestricted environment.
fn observed(
    keys: &[u64],
    inputs: &[&[u64]],
    specs: &[AggSpec],
    cfg: &AggregateConfig,
    obs: &ObsConfig,
) -> (GroupByOutput, RunReport) {
    try_aggregate_observed(keys, inputs, specs, cfg, &ExecEnv::unrestricted(), obs).unwrap()
}

/// Small cache + morsels so seals, switches, and recursion all happen at
/// test input sizes.
fn adaptive_cfg() -> AggregateConfig {
    AggregateConfig {
        cache_bytes: 64 << 10,
        threads: 2,
        strategy: Strategy::Adaptive(AdaptiveParams::default()),
        fill_percent: 25,
        morsel_rows: 1 << 12,
    }
}

fn distinct_keys(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect()
}

#[test]
fn deep_metrics_are_nontrivial_on_an_adaptive_run() {
    // Distinct keys, K ≫ table capacity: α = 1 at every seal, so the
    // adaptive strategy must seal, switch, partition, and recurse.
    let keys = distinct_keys(200_000);
    let (out, report) = observed(&keys, &[], &[], &adaptive_cfg(), &ObsConfig::full());
    assert_eq!(out.n_groups(), 200_000);

    let stats = &report.stats;
    assert!(stats.switches_to_partitioning > 0, "adaptive run must switch");

    let snapshot = report.metrics.as_ref().expect("metrics requested");
    let m = snapshot.merged();

    // Hash-table probe behavior was observed.
    assert!(m.counter(Counter::TableInserts) > 0);
    assert!(m.hist(Hist::ProbeLen).count() > 0, "probe-length histogram");
    assert!(m.hist(Hist::SealFillPct).count() >= stats.seals);

    // Partitioning traffic was observed: DISTINCT rows move their key only.
    assert!(stats.total_part_rows() > 0);
    assert_eq!(m.counter(Counter::PartBytes), stats.total_part_rows() * 8);
    assert!(m.hist(Hist::PartitionSkewPct).count() > 0);

    // The per-switch reduction factor was sampled, and on distinct keys it
    // must be tiny (α ≈ 1 ≪ α₀).
    assert!(m.alpha_count() > 0, "per-switch alpha samples");
    let mean_alpha = m.alpha_sum() / m.alpha_count() as f64;
    assert!(mean_alpha < 4.0, "distinct keys should show alpha near 1, got {mean_alpha}");

    // Scheduler counters: every morsel ran somewhere, and the scope saw
    // some scheduling activity (steals or parked time).
    let pool = report.pool.as_ref().expect("pool metrics requested");
    let totals = pool.totals();
    assert!(totals.tasks_executed >= (keys.len() / (1 << 12)) as u64);
    assert!(
        totals.steals + totals.failed_steal_scans + totals.idle_nanos > 0,
        "expected some work-stealing activity"
    );

    // Per-worker morsel accounting sums to the total claimed.
    let per_worker: u64 = snapshot.workers.iter().map(|w| w.counter(Counter::MorselsClaimed)).sum();
    assert_eq!(per_worker, m.counter(Counter::MorselsClaimed));
}

#[test]
fn trace_is_valid_chrome_json_with_span_events() {
    let keys = distinct_keys(100_000);
    let (_, report) = observed(&keys, &[], &[], &adaptive_cfg(), &ObsConfig::full());
    let trace = report.trace_json.expect("trace requested");
    let parsed = json::parse(&trace).expect("trace must be valid JSON");
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());

    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(|n| n.as_str())).collect();
    assert!(names.contains(&"morsel"), "morsel spans missing: {names:?}");
    assert!(names.contains(&"seal"), "seal instants missing");
    assert!(names.contains(&"bucket"), "bucket spans missing");
    assert!(names.contains(&"switch_to_partitioning"), "switch instants missing");

    // Every complete event carries microsecond timestamps and a worker tid.
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        if ph == "X" {
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().is_some());
            assert!(e.get("tid").unwrap().as_u64().is_some());
        }
    }
}

#[test]
fn disabled_observability_adds_no_sections() {
    let keys = distinct_keys(50_000);
    let (_, report) =
        observed(&keys, &[], &[AggSpec::count()], &adaptive_cfg(), &ObsConfig::disabled());
    assert!(report.metrics.is_none());
    assert!(report.pool.is_none());
    assert!(report.trace_json.is_none());
    // The always-on stats and headline numbers are still there.
    assert_eq!(report.rows_in, 50_000);
    assert!(report.stats.total_hash_rows() + report.stats.total_part_rows() >= 50_000);
    let parsed = json::parse(&report.to_json().to_string_pretty(2)).unwrap();
    assert!(parsed.get("metrics").is_none());
    assert_eq!(parsed.get("rows_in").unwrap().as_u64(), Some(50_000));
}

/// The wire contract of a report: consumers (`benchmark/src/ledger.rs`,
/// CI's `low-memory` job, `scripts/serve_smoke.py`) read these members by
/// name from `--stats-json` files and serve `done` lines. Adding a member
/// is compatible; a missing or renamed one needs a `REPORT_VERSION` bump.
#[test]
fn report_json_keys_are_pinned_with_and_without_metrics() {
    const STATS: [&str; 28] = [
        "hash_rows_per_level",
        "part_rows_per_level",
        "task_nanos_per_level",
        "passes_used",
        "seals",
        "switches_to_partitioning",
        "switches_to_hashing",
        "fallback_merges",
        "budget_denials",
        "budget_downgrades",
        "budget_high_water_bytes",
        "cancellations",
        "contained_panics",
        "spilled_runs",
        "spilled_runs_per_level",
        "spilled_bytes",
        "restored_runs",
        "restored_bytes",
        "spill_retries",
        "restore_retries",
        "spill_io_abandons",
        "spill_reclaimed_files",
        "spill_reclaimed_bytes",
        "disk_budget_denials",
        "disk_high_water_bytes",
        "spill_encoded_bytes",
        "overlapped_io_nanos",
        "spill_io_wait_nanos",
    ];
    const COUNTERS: [&str; 28] = [
        "morsels_claimed",
        "tables_sealed",
        "switches_to_partitioning",
        "switches_to_hashing",
        "fallback_merges",
        "hash_rows",
        "part_rows",
        "table_inserts",
        "probe_steps",
        "part_bytes",
        "budget_denials",
        "budget_downgrades",
        "cancellations",
        "contained_panics",
        "spilled_runs",
        "spilled_bytes",
        "restored_runs",
        "restored_bytes",
        "spill_retries",
        "restore_retries",
        "spill_abandons",
        "spill_reclaimed_files",
        "disk_budget_denials",
        "spill_encoded_bytes",
        "overlapped_io_nanos",
        "spill_io_wait_nanos",
        // Added with the always-on counter cells.
        "spill_reclaimed_bytes",
        "task_nanos",
    ];
    const HISTS: [&str; 7] = [
        "probe_len",
        "block_displacement",
        "seal_fill_pct",
        "morsel_rows",
        "partition_skew_pct",
        "spill_nanos",
        "restore_nanos",
    ];
    fn keys(v: &JsonValue) -> Vec<&str> {
        let JsonValue::Object(pairs) = v else { panic!("not an object: {v:?}") };
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys
    }
    fn sorted<'a>(parts: &[&[&'a str]]) -> Vec<&'a str> {
        let mut all = parts.concat();
        all.sort_unstable();
        all
    }

    let top = [
        "report_version",
        "query_id",
        "rows_in",
        "groups_out",
        "threads",
        "wall_nanos",
        "rows_per_sec",
        "stats",
    ];
    let keys_in = distinct_keys(60_000);
    for (obs, sections) in [
        (ObsConfig::disabled(), &[][..]),
        (ObsConfig { metrics: true, ..ObsConfig::disabled() }, &["pool", "metrics", "profile"]),
    ] {
        let (_, report) = observed(&keys_in, &[], &[AggSpec::count()], &adaptive_cfg(), &obs);
        let parsed = json::parse(&report.to_json().to_string_compact()).unwrap();
        assert_eq!(parsed.get("report_version").unwrap().as_u64(), Some(4));
        assert_eq!(keys(&parsed), sorted(&[&top, sections]), "metrics {}", obs.metrics);
        assert_eq!(keys(parsed.get("stats").unwrap()), sorted(&[&STATS]));
        let Some(metrics) = parsed.get("metrics") else { continue };
        let cells = sorted(&[&COUNTERS, &HISTS, &["phases", "alphas", "alpha_count", "alpha_sum"]]);
        assert_eq!(keys(metrics.get("merged").unwrap()), cells);
        let workers = metrics.get("workers").unwrap().as_array().unwrap();
        assert_eq!(workers.len(), 2);
        for w in workers {
            assert_eq!(keys(w), cells);
        }
        // The totals in `stats` are the sums of what the workers counted.
        let merged = metrics.get("merged").unwrap();
        let stat = |k: &str| parsed.get("stats").unwrap().get(k).unwrap().as_u64();
        assert_eq!(merged.get("tables_sealed").unwrap().as_u64(), stat("seals"));
        assert_eq!(merged.get("spilled_runs").unwrap().as_u64(), stat("spilled_runs"));
    }
}

#[test]
fn profile_conserves_rows_across_levels() {
    // Distinct keys force seals, switches, and multi-level recursion.
    let keys = distinct_keys(200_000);
    let (_, report) = observed(&keys, &[], &[], &adaptive_cfg(), &ObsConfig::full());
    let profile = report.profile.as_ref().expect("profile rides with metrics");

    // Level 0 consumed every input row exactly once, by hashing or
    // partitioning.
    let consumed0 =
        profile.cell(0, Phase::HashInsert).rows_in + profile.cell(0, Phase::Partition).rows_in;
    assert_eq!(consumed0, 200_000);

    // Every run entering level L was produced at level L−1: seals emit
    // their groups and partitioning re-emits its rows, one level down.
    for lvl in 1..profile.levels_used() {
        let into = profile.cell(lvl, Phase::HashInsert).rows_in
            + profile.cell(lvl, Phase::Partition).rows_in
            + profile.cell(lvl, Phase::GrowMerge).rows_in;
        let from_above = profile.cell(lvl - 1, Phase::Seal).rows_out
            + profile.cell(lvl - 1, Phase::Partition).rows_out;
        assert_eq!(into, from_above, "rows not conserved entering level {lvl}");
    }

    // On distinct keys the hash phases observe α ≈ 1.
    let hash0 = profile.cell(0, Phase::HashInsert);
    assert!(hash0.rows_out > 0);
    assert!(
        (hash0.rows_in as f64 / hash0.rows_out as f64) < 2.0,
        "distinct keys must show alpha near 1"
    );

    // The render names the phases that actually ran.
    let explain = report.explain();
    assert!(explain.contains("hash_insert"), "explain: {explain}");
    assert!(explain.contains("partition"), "explain: {explain}");
    assert!(explain.contains("level 1"), "explain: {explain}");
}

#[test]
fn explain_attributes_nearly_all_wall_time_single_threaded() {
    // Acceptance: ≥ 95% of the query wall clock lands in leaf phases. At
    // one thread coverage is exactly the attributed share of wall time.
    let keys = distinct_keys(400_000);
    let cfg = AggregateConfig { threads: 1, ..adaptive_cfg() };
    let obs = ObsConfig { metrics: true, ..ObsConfig::disabled() };
    let (_, report) = observed(&keys, &[], &[], &cfg, &obs);
    let profile = report.profile.as_ref().expect("profile rides with metrics");
    assert_eq!(profile.threads, 1);
    let coverage = profile.coverage();
    assert!(coverage >= 0.95, "only {:.1}% of wall time attributed", coverage * 100.0);
    assert!(coverage <= 1.05, "attributed more than wall time: {coverage}");
}

#[test]
fn profile_tracks_spill_restore_and_the_budget_high_water() {
    let dir = std::env::temp_dir().join(format!("hsa-obs-profile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let keys = distinct_keys(120_000);
    let budget = hsa_core::MemoryBudget::limited(4 << 20);
    let env = ExecEnv::unrestricted().with_budget(budget.clone()).with_spill_dir(&dir);
    let cfg = adaptive_cfg();
    let specs = [AggSpec::count()];
    // Three copies of the key set: ≈5.5 MiB of intermediate rows against
    // ≈1.8 MiB of output. (The partition writers reserve what they hold,
    // not twice a morsel's payload up front, so one copy would fit.)
    let push_all = |stream: &mut AggStream| {
        for chunk in keys.chunks(8192).cycle().take(3 * keys.len().div_ceil(8192)) {
            stream.push(chunk, &[]).unwrap();
        }
    };
    let mut stream = AggStream::new(&specs, &cfg, &env, &ObsConfig::full()).unwrap();
    push_all(&mut stream);
    let (out, report) = stream.finish().unwrap();
    assert_eq!(out.n_groups(), 120_000);
    assert!(report.stats.spilled_runs() > 0, "budgeted run must spill");

    // The peak reservation was recorded, bounded by the limit, and copied
    // into both the stats and the profile header.
    let hw = report.stats.budget_high_water_bytes;
    assert!(hw > 0, "a budgeted run must record a high-water mark");
    assert!(hw <= 4 << 20, "high water {hw} exceeds the limit");
    let profile = report.profile.as_ref().expect("profile rides with metrics");
    assert_eq!(profile.budget_high_water, hw);

    // Spill and restore phases carry their byte traffic. The default
    // store runs the async I/O pipeline, so the overlap metrics are live:
    // background worker time plus compute-side waits is nonzero, and the
    // hidden fraction stays a fraction.
    let spilled: u64 =
        (0..profile.levels_used()).map(|lvl| profile.cell(lvl, Phase::Spill).bytes).sum();
    assert_eq!(spilled, report.stats.spilled_bytes);
    assert!(profile.io_nanos() > 0);
    assert_eq!(profile.overlapped_io_nanos, report.stats.overlapped_io_nanos);
    assert!(
        report.stats.overlapped_io_nanos + report.stats.spill_io_wait_nanos > 0,
        "async spill pipeline must record background I/O time"
    );
    assert!((0.0..1.0).contains(&profile.overlap_fraction()));
    assert!(report.stats.spill_encoded_bytes > 0, "encoded footprint must be tracked");
    assert!(
        report.stats.spill_encoded_bytes <= report.stats.spilled_bytes,
        "compression never exceeds the reserved upper bound"
    );

    // JSON carries the same numbers under the profile section.
    let parsed = json::parse(&report.to_json().to_string_compact()).unwrap();
    let p = parsed.get("profile").unwrap();
    assert_eq!(p.get("budget_high_water_bytes").unwrap().as_u64(), Some(hw));
    assert_eq!(
        p.get("overlapped_io_nanos").unwrap().as_u64(),
        Some(report.stats.overlapped_io_nanos)
    );
    assert_eq!(p.get("spill_overlap_fraction").unwrap().as_f64(), Some(profile.overlap_fraction()));

    // With the async pipeline disabled, everything is foreground again:
    // zero overlap, zero waits, bit-identical output.
    let sync_env = env.with_spill_config(hsa_core::SpillConfig { io_threads: 0 });
    let mut sync_stream = AggStream::new(&specs, &cfg, &sync_env, &ObsConfig::full()).unwrap();
    push_all(&mut sync_stream);
    let (sync_out, sync_report) = sync_stream.finish().unwrap();
    assert_eq!(sync_out.sorted_rows(), out.sorted_rows());
    assert_eq!(sync_report.stats.overlapped_io_nanos, 0);
    assert_eq!(sync_report.stats.spill_io_wait_nanos, 0);
    let sync_profile = sync_report.profile.as_ref().unwrap();
    assert_eq!(sync_profile.overlap_fraction(), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_decoded_by_its_consumer_is_restore_time_not_driver_time() {
    // No I/O workers, one thread: every level-1 run is read and decoded
    // by the bucket task that consumes it, inside its Restore phase. The
    // Driver cell keeps the dispatch overhead only, so it must stay well
    // under the cost of decoding the bucket's rows.
    let dir = std::env::temp_dir().join(format!("hsa-obs-inline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let keys = distinct_keys(120_000);
    let env = ExecEnv::unrestricted()
        .with_budget(hsa_core::MemoryBudget::limited(4 << 20))
        .with_spill_dir(&dir)
        .with_spill_config(hsa_core::SpillConfig { io_threads: 0 });
    let cfg = AggregateConfig { threads: 1, ..adaptive_cfg() };
    let mut stream = AggStream::new(&[AggSpec::count()], &cfg, &env, &ObsConfig::full()).unwrap();
    for chunk in keys.chunks(8192).cycle().take(3 * keys.len().div_ceil(8192)) {
        stream.push(chunk, &[]).unwrap();
    }
    let (_, report) = stream.finish().unwrap();
    assert!(report.stats.spilled_runs_per_level[1] > 0, "level 1 must restore: {:?}", report.stats);
    let profile = report.profile.as_ref().expect("profile rides with metrics");
    let (restore, driver) =
        (profile.cell(1, Phase::Restore).nanos, profile.cell(1, Phase::Driver).nanos);
    assert!(restore > driver, "level 1: restore {restore} ns, driver {driver} ns");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_sampler_runs_and_stops_through_a_stream() {
    // The heartbeat thread must start with the stream, survive pushes and
    // phase 2, and be joined by finish() — finishing promptly (a leaked
    // sampler would keep the process alive and flood stderr).
    let keys = distinct_keys(60_000);
    let obs =
        ObsConfig { progress: Some(std::time::Duration::from_millis(1)), ..ObsConfig::disabled() };
    let specs = [AggSpec::count()];
    let mut stream =
        AggStream::new(&specs, &adaptive_cfg(), &ExecEnv::unrestricted(), &obs).unwrap();
    for chunk in keys.chunks(4096) {
        stream.push(chunk, &[]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let (out, report) = stream.finish().unwrap();
    assert_eq!(out.n_groups(), 60_000);
    // Progress alone collects no deep metrics and no profile.
    assert!(report.metrics.is_none());
    assert!(report.profile.is_none());
}

#[test]
fn report_json_of_a_real_run_parses_and_cross_checks() {
    let keys = distinct_keys(80_000);
    let vals: Vec<u64> = (0..80_000).collect();
    let (out, report) = observed(
        &keys,
        &[&vals],
        &[AggSpec::count(), AggSpec::sum(0)],
        &adaptive_cfg(),
        &ObsConfig::full(),
    );
    let parsed = json::parse(&report.to_json().to_string_pretty(2)).unwrap();
    assert_eq!(parsed.get("rows_in").unwrap().as_u64(), Some(80_000));
    assert_eq!(parsed.get("groups_out").unwrap().as_u64(), Some(out.n_groups() as u64));
    // The pretty rendering mentions the headline numbers.
    let pretty = report.pretty();
    assert!(pretty.contains("rows in            80000"));
    assert!(pretty.contains("passes used"));
}
