//! Layer replays: after the traced window, the workload's own input goes
//! through each layer's public function in isolation. Each number is the
//! median of [`REPEATS`] repetitions. The replays say what a layer costs
//! alone; the ledger says what share of a query it had — the two together
//! are the reconciliation ROADMAP item 1 asks for.

use crate::ledger::{metric, Ledger, Metric, MIB};
use crate::runner::{scratch_dir, RunOptions};
use crate::serve_door::rows_line;
use crate::stats::median_of;
use crate::workloads::{Input, SERVE_CHUNK_ROWS};
use hashing_is_sorting::datagen::{generate, Distribution};
use hashing_is_sorting::kernels::{
    fold_mapped, partition_keys, select, AggTable, FoldOp, Hasher64, KernelPref, Murmur2,
    TableConfig,
};
use hashing_is_sorting::obs::json::{parse, JsonValue};
use hashing_is_sorting::obs::Phase;
use hashing_is_sorting::xmem::{hash_agg_opt, ModelParams};
use hashing_is_sorting::{
    AdmissionConfig, AdmissionController, AdmissionOutcome, AdmissionRequest, AggregateConfig,
    DiskBudget, FaultInjector, MemoryBudget, RunStore, SpillConfig,
};
use hsa_columnar::{crc32c, Run};
use std::hint::black_box;
use std::time::{Duration, Instant};

const REPEATS: usize = 5;
/// Rows per replayed morsel, the operator's default.
const MORSEL_ROWS: usize = 1 << 16;
/// Runs the store replay cuts the input into.
const STORE_RUNS: usize = 256;
/// Rows per cache line of 8-byte keys, for the external-memory model.
const ROWS_PER_LINE: u64 = 8;

/// Median over [`REPEATS`] of `f`, which returns what it measured.
fn repeated(mut f: impl FnMut() -> f64) -> f64 {
    median_of((0..REPEATS).map(|_| f()).collect())
}

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// What one pass of the HASHING inner loop over the input cost, by part.
#[derive(Default)]
struct HashingPass {
    insert_s: f64,
    fold_sum_s: f64,
    fold_count_s: f64,
    seal_s: f64,
    rows_emitted: u64,
}

/// The HASHING routine's inner loop, re-enacted with public pieces: batch
/// insert into a cache-sized two-column table, fold COUNT and SUM through
/// the mapping, seal whenever the table reports full, and once at the end.
fn hashing_pass(input: &Input) -> HashingPass {
    let kind = select(KernelPref::Auto);
    let config = TableConfig::for_cache_bytes(AggregateConfig::default().cache_bytes, 2);
    let mut table = AggTable::new(config, 0, &[0, 0]);
    let mut mapping = Vec::with_capacity(MORSEL_ROWS);
    let mut pass = HashingPass::default();
    let seal = |table: &mut AggTable, pass: &mut HashingPass| {
        let start = Instant::now();
        table.seal(|_, keys, cols| {
            pass.rows_emitted += keys.len() as u64;
            black_box(cols);
        });
        pass.seal_s += start.elapsed().as_secs_f64();
    };
    for (keys, vals) in input.keys.chunks(MORSEL_ROWS).zip(input.vals.chunks(MORSEL_ROWS)) {
        let mut row = 0;
        while row < keys.len() {
            mapping.clear();
            let start = Instant::now();
            let batch = table.insert_batch(Murmur2::default(), &keys[row..], kind, &mut mapping);
            pass.insert_s += start.elapsed().as_secs_f64();
            let vals = &vals[row..row + batch.consumed];
            pass.fold_sum_s +=
                secs(|| fold_mapped(kind, FoldOp::Sum, false, table.col_mut(1), &mapping, vals));
            pass.fold_count_s +=
                secs(|| fold_mapped(kind, FoldOp::Count, false, table.col_mut(0), &mapping, vals));
            row += batch.consumed;
            if batch.full {
                seal(&mut table, &mut pass);
            }
        }
    }
    seal(&mut table, &mut pass);
    pass
}

/// Cut the input into [`STORE_RUNS`] runs, write them as one spill batch,
/// read every run back. Returns (write seconds, read seconds).
fn store_round_trip(input: &Input, store: &RunStore) -> Result<(f64, f64), String> {
    let per_run = input.keys.len().div_ceil(STORE_RUNS);
    let runs: Vec<Run> = input
        .keys
        .chunks(per_run)
        .zip(input.vals.chunks(per_run))
        .map(|(k, v)| Run::from_rows(k, &[v]))
        .collect();
    let start = Instant::now();
    let handles = store.spill_batch(runs).map_err(|e| format!("store replay: {e}"))?;
    let write_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut rows = 0;
    for handle in handles {
        rows += handle.into_run().map_err(|e| format!("store replay: {e}"))?.len();
    }
    let read_s = start.elapsed().as_secs_f64();
    if rows != input.keys.len() {
        return Err(format!("store replay read {rows} of {} rows back", input.keys.len()));
    }
    Ok((write_s, read_s))
}

/// An allocation-free loop of the harness's own (a dependent
/// multiply-xorshift chain, nothing from the repo): the median time of one
/// step over batches lasting `length` in total. It moves only when the
/// host does.
fn calibrate(length: Duration) -> (f64, u64) {
    const BATCH: u64 = 1 << 20;
    let deadline = Instant::now() + length;
    let mut batches = Vec::new();
    let mut x = 0u64;
    while Instant::now() < deadline || batches.is_empty() {
        let start = Instant::now();
        for _ in 0..BATCH {
            x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1);
        }
        batches.push(start.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
    }
    black_box(x);
    let n = batches.len() as u64;
    (median_of(batches), n)
}

pub fn replay(
    opts: &RunOptions,
    input: &Input,
    ledger: &Ledger,
    calibration: Duration,
) -> Result<Vec<Metric>, String> {
    let rows = input.keys.len();
    let per_row = |seconds: f64| seconds * 1e9 / rows as f64;
    let n = REPEATS as u64;
    let mut out = Vec::new();

    let groups = opts.workload.groups(opts.smoke);
    let generate_s = repeated(|| {
        secs(|| {
            black_box(generate(Distribution::Uniform, rows, groups, opts.seed));
        })
    });
    out.push(metric("datagen.generate_ns_per_row", per_row(generate_s), n));

    let hasher = Murmur2::default();
    let murmur_s = repeated(|| {
        secs(|| {
            black_box(input.keys.iter().fold(0u64, |acc, &k| acc ^ hasher.hash_u64(k)));
        })
    });
    out.push(metric("hash.murmur2_ns_per_row", per_row(murmur_s), n));

    let passes: Vec<HashingPass> = (0..REPEATS).map(|_| hashing_pass(input)).collect();
    let part = |f: fn(&HashingPass) -> f64| median_of(passes.iter().map(f).collect());
    let (insert_s, seal_s) = (part(|p| p.insert_s), part(|p| p.seal_s));
    let (fold_sum_s, fold_count_s) = (part(|p| p.fold_sum_s), part(|p| p.fold_count_s));
    out.extend([
        metric("hashtbl.insert_ns_per_row", per_row(insert_s), n),
        metric("hashtbl.seal_ns_per_row", per_row(seal_s), n),
        metric("hashtbl.alpha", rows as f64 / passes[0].rows_emitted.max(1) as f64, n),
        metric("kernels.fold_ns_per_row", per_row(fold_sum_s), n),
    ]);

    let partition_s = repeated(|| {
        let start = Instant::now();
        let parts = partition_keys(input.keys.chunks(MORSEL_ROWS), Murmur2::default(), 0);
        let elapsed = start.elapsed().as_secs_f64();
        black_box(parts);
        elapsed
    });
    out.push(metric("partition.pass_ns_per_row", per_row(partition_s), n));

    // Does the microbench explain the phase? Phase time per routed row
    // over the replayed cost of the same work (1 = fully explained).
    let hashing_ns = per_row(insert_s + fold_sum_s + fold_count_s);
    let versus = |phase: Phase, replayed: f64| {
        let phase_ns = ledger.phase_ns_per_row(phase);
        if replayed > 0.0 {
            phase_ns / replayed
        } else {
            0.0
        }
    };
    out.extend([
        metric("core.hash_insert_vs_replay", versus(Phase::HashInsert, hashing_ns), n),
        metric("core.partition_vs_replay", versus(Phase::Partition, per_row(partition_s)), n),
    ]);

    let dir = scratch_dir(opts, "-replay");
    // A synchronous store: with I/O workers a write is only a submission,
    // and the replay wants the store's own encode, write and read time.
    let inline = SpillConfig { io_threads: 0, ..SpillConfig::default() };
    let store = RunStore::spilling_with_config(
        &dir,
        FaultInjector::none(),
        DiskBudget::unlimited(),
        inline,
    )
    .map_err(|e| format!("store replay: {e}"))?;
    let mut trips = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        trips.push(store_round_trip(input, &store)?);
    }
    drop(store);
    if let Some(problem) = crate::lib_door::scratch_problem(&dir) {
        return Err(problem);
    }
    let mib = (rows * 16) as f64 / MIB;
    out.extend([
        metric(
            "columnar.store.write_mib_s",
            mib / median_of(trips.iter().map(|t| t.0).collect()),
            n,
        ),
        metric(
            "columnar.store.read_mib_s",
            mib / median_of(trips.iter().map(|t| t.1).collect()),
            n,
        ),
    ]);

    let bytes: Vec<u8> =
        input.keys.iter().chain(&input.vals).flat_map(|w| w.to_le_bytes()).collect();
    let crc_s = repeated(|| {
        secs(|| {
            black_box(crc32c(black_box(&bytes)));
        })
    });
    out.push(metric("columnar.crc32c_gib_s", bytes.len() as f64 / MIB / 1024.0 / crc_s, n));
    drop(bytes);

    const RESERVES: u32 = 100_000;
    let budget = MemoryBudget::limited(1 << 30);
    let reserve_s = repeated(|| {
        secs(|| {
            for _ in 0..RESERVES {
                black_box(budget.try_reserve(4096).expect("far below the limit"));
            }
        })
    });
    out.push(metric("fault.reserve_ns", reserve_s * 1e9 / f64::from(RESERVES), n));

    const ADMITS: u32 = 10_000;
    let controller = AdmissionController::new(AdmissionConfig {
        memory_bytes: Some(512 << 20),
        disk_bytes: None,
        max_queries: Some(4),
    });
    let admit_s = repeated(|| {
        secs(|| {
            for _ in 0..ADMITS {
                match controller.try_admit(&AdmissionRequest::default()) {
                    AdmissionOutcome::Admitted(grant) => drop(black_box(grant)),
                    other => panic!("an idle controller did not admit: {other:?}"),
                }
            }
        })
    });
    out.push(metric("fault.admit_ns", admit_s * 1e9 / f64::from(ADMITS), n));

    const SCOPES: u32 = 1_000;
    let scope_s = repeated(|| {
        secs(|| {
            for _ in 0..SCOPES {
                hsa_tasks::scope(2, |_| {});
            }
        })
    });
    out.push(metric("tasks.scope_us", scope_s * 1e6 / f64::from(SCOPES), n));
    const SPAWNS: u32 = 10_000;
    let spawn_s = repeated(|| {
        secs(|| {
            hsa_tasks::scope(2, |s| {
                for _ in 0..SPAWNS {
                    s.spawn(|_| {});
                }
            })
        })
    });
    out.push(metric("tasks.spawn_ns", spawn_s * 1e9 / f64::from(SPAWNS), n));

    let chunk = rows.min(SERVE_CHUNK_ROWS);
    let line = rows_line(&input.keys[..chunk], &input.vals[..chunk]);
    let parse_s = repeated(|| {
        secs(|| {
            let doc = parse(&line).expect("a line the harness encoded");
            let extract = |v: Option<&JsonValue>| -> u64 {
                let values = v.and_then(JsonValue::as_array).expect("an array");
                values.iter().map(|x| x.as_u64().expect("a u64")).fold(0, u64::wrapping_add)
            };
            let cols = doc.get("cols").and_then(JsonValue::as_array).expect("cols");
            black_box(extract(doc.get("keys")) ^ extract(cols.first()));
        })
    });
    out.push(metric("obs.json.parse_ns_per_row", parse_s * 1e9 / chunk as f64, n));
    let block = rows.min(1024);
    let write_s = repeated(|| {
        secs(|| {
            let array = |v: &[u64]| JsonValue::u64_array(v[..block].iter().copied());
            let cols = JsonValue::Array(vec![array(&input.vals), array(&input.vals)]);
            let body = JsonValue::obj([("keys", array(&input.keys)), ("cols", cols)]);
            black_box(JsonValue::obj([("block", body)]).to_string_compact());
        })
    });
    out.push(metric("obs.json.write_ns_per_row", write_s * 1e9 / block as f64, n));

    let config = TableConfig::for_cache_bytes(AggregateConfig::default().cache_bytes, 2);
    let model = ModelParams { m: config.total_slots as u64, b: ROWS_PER_LINE };
    let lines = hash_agg_opt(model, rows as u64, groups);
    out.push(metric("xmem.model_lines_per_row", lines as f64 / rows as f64, 1));

    let (calib_ns, batches) = calibrate(calibration);
    out.push(metric("bench.calib_ns", calib_ns, batches));
    Ok(out)
}
