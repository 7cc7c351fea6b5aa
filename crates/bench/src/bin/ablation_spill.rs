//! Ablation: out-of-core aggregation — what spill-to-disk costs.
//!
//! Streams one fixed workload through `AggStream` under a ladder of memory
//! budgets with a spill directory configured, against the unbudgeted
//! in-memory run as the baseline. As the budget tightens below the
//! intermediate-run working set, seal-time reservations start getting
//! denied and downgraded into spill-file writes; the table shows the onset
//! and the price: how many runs went to disk, how many bytes moved, and
//! the element-time slowdown relative to keeping everything resident.
//!
//! The budget ladder is expressed in multiples of the output working set
//! (`K` groups × key + two state columns), the floor an aggregation with
//! resident output can never go below — output blocks are materialized
//! in memory even when runs spill.
//!
//! Two extra columns expose the async spill pipeline: `comp ratio` is
//! encoded-over-logical bytes on disk (delta+varint / RLE per extent), and
//! `overlap %` is the share of spill/restore I/O hidden behind compute
//! (`overlapped / (overlapped + waited)` from the store's worker clock).
//!
//! A note on the tail of the ladder: a denial spills in proportion to the
//! overflow (the writer's largest partitions until the rest fits, or the
//! resident runs furthest from use until a request fits), so spilled bytes
//! and the slowdown grow as the budget tightens. At 2^20 rows and two
//! threads, ten runs read median slowdowns of 1.26, 1.98 and 2.06 at 2x,
//! 1.5x and 1.25x, each rung spreading about ±0.5 between runs. The
//! column to watch for the regression gate is the worst rung, which is
//! the last one.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin ablation_spill [rows_log2]
//! ```

use hsa_agg::AggSpec;
use hsa_bench::*;
use hsa_core::{AggStream, ExecEnv, MemoryBudget, ObsConfig, OpStats, Strategy};
use hsa_datagen::{generate, Distribution};

/// Rows per `push` — small enough that ingestion itself stays bounded.
const CHUNK_ROWS: usize = 1 << 16;

fn run_streamed(
    keys: &[u64],
    vals: &[u64],
    cfg: &hsa_core::AggregateConfig,
    env: &ExecEnv,
) -> Result<(usize, OpStats), hsa_core::AggError> {
    let specs = [AggSpec::count(), AggSpec::sum(0)];
    let mut stream = AggStream::new(&specs, cfg, env, &ObsConfig::disabled())?;
    for (k, v) in keys.chunks(CHUNK_ROWS).zip(vals.chunks(CHUNK_ROWS)) {
        stream.push(k, &[v])?;
    }
    let (out, report) = stream.finish()?;
    Ok((out.n_groups(), report.stats))
}

fn main() {
    let mut out = Sidecar::from_args("ablation_spill");
    let rows_log2: u32 = arg(1).unwrap_or(22);
    let n = 1usize << rows_log2;
    let k = (n as u64 / 4).max(1);
    let threads = default_threads();
    let cfg = sweep_cfg(Strategy::Adaptive(Default::default()), threads);
    let repeats = repeats_for(n).min(3);

    let keys = generate(Distribution::Uniform, n, k, 42);
    let vals: Vec<u64> = (0..n as u64).collect();
    let dir = std::env::temp_dir().join(format!("hsa-ablation-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The output working set: K groups of key + COUNT + SUM state.
    let output_bytes = k * 8 * 3;

    println!("# Ablation: spill-to-disk, uniform, N = 2^{rows_log2}, K = N/4, {threads} threads");
    println!("# budgets in multiples of the {} MiB output working set", output_bytes >> 20);
    out.header(&cells![
        "budget x output",
        "budget MiB",
        "spilled runs",
        "spilled MiB",
        "restored MiB",
        "comp ratio",
        "overlap %",
        "element ns",
        "slowdown",
    ]);

    // Unbudgeted baseline first; then the ladder down into spilling.
    let (base_secs, base) = median_secs(repeats, || {
        run_streamed(&keys, &vals, &cfg, &ExecEnv::unrestricted()).expect("unbudgeted run")
    });
    let (base_groups, base_stats) = base;
    assert_eq!(base_stats.spilled_runs(), 0);
    let base_ns = element_time_ns(base_secs, threads, n, 1);
    out.row(&cells![
        "unlimited",
        "-",
        0,
        0,
        0,
        "-",
        "-",
        format!("{base_ns:.2}"),
        format!("{:.2}", 1.0),
    ]);

    for factor in [16.0f64, 8.0, 4.0, 2.0, 1.5, 1.25] {
        let budget_bytes = (output_bytes as f64 * factor) as u64;
        let env = ExecEnv::unrestricted()
            .with_budget(MemoryBudget::limited(budget_bytes))
            .with_spill_dir(&dir);
        let (secs, result) = median_secs(repeats, || run_streamed(&keys, &vals, &cfg, &env));
        let label = format!("{factor:.2}");
        match result {
            Ok((groups, stats)) => {
                assert_eq!(groups, base_groups, "budgeted run changed the answer");
                let ns = element_time_ns(secs, threads, n, 1);
                let ratio = stats.spill_encoded_bytes as f64 / stats.spilled_bytes.max(1) as f64;
                let overlap = 100.0 * stats.overlapped_io_nanos as f64
                    / (stats.overlapped_io_nanos + stats.spill_io_wait_nanos).max(1) as f64;
                out.row(&cells![
                    label,
                    budget_bytes >> 20,
                    stats.spilled_runs(),
                    stats.spilled_bytes >> 20,
                    stats.restored_bytes >> 20,
                    format!("{ratio:.2}"),
                    format!("{overlap:.0}"),
                    format!("{ns:.2}"),
                    format!("{:.2}", ns / base_ns),
                ]);
            }
            Err(e) => {
                // Below the resident floor even spilling cannot save the
                // run; record the cliff instead of hiding it.
                out.row(&cells![
                    label,
                    budget_bytes >> 20,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    format!("{e}")
                ]);
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
