//! Ordinal chaos sweep over every injectable spill-I/O site.
//!
//! [`FaultPlan::spill_io`] names one I/O operation by 1-based ordinal
//! (write kinds count spill-file writes, read kinds count restores) and
//! one way for it to misbehave. Sweeping the ordinal over a workload
//! that must spill visits every I/O site of the run; for each injection
//! this suite asserts the durability contract end to end:
//!
//! 1. **transient faults** (`WriteEio`, `WriteShort`, `ReadEio`) are
//!    absorbed by the bounded retry: the query succeeds, the output is
//!    bit-identical to an un-injected baseline, and the retry counters
//!    in [`OpStats`] show the recovery happened rather than the fault
//!    silently missing;
//! 2. **permanent faults** surface as the matching typed error —
//!    `WriteEnospc` as [`AggError::SpillFailed`], `ReadBitFlip` and
//!    `ReadTruncate` as [`AggError::SpillCorrupt`] — never as a panic
//!    or a wrong answer;
//! 3. after *every* outcome the memory budget and the disk budget both
//!    drain to zero outstanding bytes and the spill directory is empty:
//!    no leaked reservations, no orphaned scratch files.

use hsa_agg::AggSpec;
use hsa_core::{
    try_aggregate, AggError, AggStream, AggregateConfig, CancelReason, CancelToken, DiskBudget,
    ExecEnv, FaultInjector, FaultPlan, MemoryBudget, ObsConfig, SpillConfig, SpillFault,
    SpillFaultKind,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

mod common;

/// `sorted_rows()` of one run: the bit-identity comparison unit.
type Rows = Vec<(u64, Vec<u64>)>;
/// Outcome of one injected run: sorted rows + stats, or the typed error.
type Outcome = Result<(Rows, hsa_core::OpStats), AggError>;

fn specs() -> Vec<AggSpec> {
    vec![AggSpec::count(), AggSpec::sum(0)]
}

/// Single-threaded with small morsels: a deterministic, affordable
/// number of spill writes and restores (every one an injection site).
fn config() -> AggregateConfig {
    AggregateConfig {
        cache_bytes: 64 << 10,
        threads: 1,
        morsel_rows: 4096,
        ..AggregateConfig::default()
    }
}

struct Chaos {
    dir: PathBuf,
    keys: Vec<u64>,
    vals: Vec<u64>,
    budget: MemoryBudget,
    disk: DiskBudget,
    /// `sorted_rows()` of the un-injected run: the bit-identity oracle.
    baseline: Rows,
}

impl Chaos {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hsa-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (keys, vals) = common::mid_input_seal_workload();
        // The memory budget admits the worker tables but denies the seal
        // reservations, so the run cannot complete without spilling.
        let budget = MemoryBudget::limited(96 << 10);
        let disk = DiskBudget::limited(1 << 30);
        let mut chaos = Self { dir, keys, vals, budget, disk, baseline: Vec::new() };
        let (out, stats) = chaos.run(FaultInjector::none()).expect("un-injected baseline");
        assert!(stats.spilled_runs() > 0, "chaos workload does not spill: {stats:?}");
        assert!(stats.seals >= 2, "chaos workload does not seal mid-input: {stats:?}");
        assert!(stats.spilled_runs() <= 256, "sweep would be too slow: {stats:?}");
        assert_eq!(stats.restored_runs, stats.spilled_runs(), "every run is read back");
        chaos.baseline = out;
        chaos
    }

    /// One run under `injector` with the default spill configuration
    /// (async pipeline, auto compression); afterwards both budgets must
    /// be drained and the spill directory empty regardless of the outcome.
    fn run(&self, injector: FaultInjector) -> Outcome {
        self.run_with(injector, SpillConfig::default())
    }

    /// [`Self::run`] under an explicit codec / I/O-thread configuration.
    fn run_with(&self, injector: FaultInjector, spill: SpillConfig) -> Outcome {
        let env = ExecEnv::unrestricted()
            .with_budget(self.budget.clone())
            .with_disk_budget(self.disk.clone())
            .with_spill_dir(&self.dir)
            .with_faults(injector)
            .with_spill_config(spill);
        let r = try_aggregate(&self.keys, &[&self.vals], &specs(), &config(), &env);
        assert_eq!(self.budget.outstanding(), 0, "memory reservations leaked");
        assert_eq!(self.disk.outstanding(), 0, "disk reservations leaked");
        common::assert_dir_empty(&self.dir);
        r.map(|(out, stats)| (out.sorted_rows(), stats))
    }

    /// Sweep `kind` over every ordinal of its direction. `check` judges
    /// each fired injection; the sweep ends at the first ordinal past
    /// the run's last I/O operation (where nothing fires and the result
    /// must be bit-identical to the baseline).
    fn sweep(&self, kind: SpillFaultKind, check: impl Fn(u64, Outcome)) {
        for n in 1..10_000 {
            let plan =
                FaultPlan { spill_io: Some(SpillFault { nth: n, kind }), ..FaultPlan::none() };
            let injector = FaultInjector::new(plan);
            let r = self.run(injector.clone());
            if injector.spill_io_fired() == 0 {
                // Ran past the last injectable operation: sweep complete.
                // Every earlier ordinal fired, so n > 1 means the sweep
                // actually visited injection sites.
                let (out, _) = r.unwrap_or_else(|e| panic!("{kind:?} n={n} unfired: {e:?}"));
                assert_eq!(out, self.baseline, "{kind:?} n={n}: unfired run must match");
                assert!(n > 1, "{kind:?}: sweep never reached an injection site");
                return;
            }
            check(n, r);
        }
        panic!("{kind:?}: sweep did not terminate");
    }
}

#[test]
fn transient_write_eio_is_retried_to_the_exact_answer() {
    let chaos = Chaos::new("weio");
    chaos.sweep(SpillFaultKind::WriteEio, |n, r| {
        let (out, stats) = r.unwrap_or_else(|e| panic!("WriteEio n={n}: {e:?}"));
        assert_eq!(out, chaos.baseline, "WriteEio n={n}: output diverged after retry");
        assert!(stats.spill_retries >= 1, "WriteEio n={n}: retry not counted: {stats:?}");
        assert_eq!(stats.spill_io_abandons, 0, "WriteEio n={n}: transient fault abandoned");
    });
}

#[test]
fn torn_write_is_retried_to_the_exact_answer() {
    let chaos = Chaos::new("wshort");
    chaos.sweep(SpillFaultKind::WriteShort, |n, r| {
        let (out, stats) = r.unwrap_or_else(|e| panic!("WriteShort n={n}: {e:?}"));
        assert_eq!(out, chaos.baseline, "WriteShort n={n}: output diverged after retry");
        assert!(stats.spill_retries >= 1, "WriteShort n={n}: retry not counted: {stats:?}");
    });
}

#[test]
fn enospc_is_a_permanent_typed_failure() {
    let chaos = Chaos::new("enospc");
    chaos.sweep(SpillFaultKind::WriteEnospc, |n, r| match r {
        Err(AggError::SpillFailed { .. }) => {}
        other => panic!("WriteEnospc n={n}: surfaced as {other:?}"),
    });
}

#[test]
fn transient_read_eio_is_retried_to_the_exact_answer() {
    let chaos = Chaos::new("reio");
    chaos.sweep(SpillFaultKind::ReadEio, |n, r| {
        let (out, stats) = r.unwrap_or_else(|e| panic!("ReadEio n={n}: {e:?}"));
        assert_eq!(out, chaos.baseline, "ReadEio n={n}: output diverged after retry");
        assert!(stats.restore_retries >= 1, "ReadEio n={n}: retry not counted: {stats:?}");
    });
}

#[test]
fn bit_flip_on_read_is_detected_as_corruption() {
    let chaos = Chaos::new("rflip");
    chaos.sweep(SpillFaultKind::ReadBitFlip, |n, r| match r {
        Err(AggError::SpillCorrupt { .. }) => {}
        other => panic!("ReadBitFlip n={n}: surfaced as {other:?}"),
    });
}

#[test]
fn truncate_on_read_is_detected_as_corruption() {
    let chaos = Chaos::new("rtrunc");
    chaos.sweep(SpillFaultKind::ReadTruncate, |n, r| match r {
        Err(AggError::SpillCorrupt { .. }) => {}
        other => panic!("ReadTruncate n={n}: surfaced as {other:?}"),
    });
}

/// The durability contract is configuration-independent: over extents
/// of every codec, with the async pipeline off, on, and widened, an
/// injected in-flight failure still surfaces typed, drains both budgets,
/// and leaves zero scratch files — and the un-injected run stays
/// bit-identical to the (async) baseline.
#[test]
fn every_codec_and_pipeline_width_upholds_the_durability_contract() {
    let chaos = Chaos::new("matrix");
    for io_threads in [0usize, 1, 2] {
        let spill = SpillConfig { io_threads };
        let tag = format!("io_threads {io_threads}");

        let (out, stats) = chaos
            .run_with(FaultInjector::none(), spill)
            .unwrap_or_else(|e| panic!("{tag}: clean run failed: {e:?}"));
        assert_eq!(out, chaos.baseline, "{tag}: output diverged from baseline");
        assert!(stats.spilled_runs() > 0, "{tag}: workload stopped spilling");
        assert!(
            stats.spill_encoded_bytes <= stats.spilled_bytes,
            "{tag}: encoded footprint above the reserved bound: {stats:?}"
        );
        if io_threads == 0 {
            assert_eq!(stats.overlapped_io_nanos, 0, "{tag}: sync I/O claimed overlap");
            assert_eq!(stats.spill_io_wait_nanos, 0, "{tag}: sync I/O claimed waits");
        }

        // An in-flight write failure: with workers, the error parks in
        // the store and surfaces at the next synchronization point —
        // still typed, still fully drained.
        let plan = FaultPlan {
            spill_io: Some(SpillFault { nth: 1, kind: SpillFaultKind::WriteEnospc }),
            ..FaultPlan::none()
        };
        match chaos.run_with(FaultInjector::new(plan), spill) {
            Err(AggError::SpillFailed { .. }) => {}
            other => panic!("{tag}: in-flight ENOSPC surfaced as {other:?}"),
        }

        // A transient fault keeps recovering invisibly.
        let plan = FaultPlan {
            spill_io: Some(SpillFault { nth: 1, kind: SpillFaultKind::WriteEio }),
            ..FaultPlan::none()
        };
        let (out, stats) = chaos
            .run_with(FaultInjector::new(plan), spill)
            .unwrap_or_else(|e| panic!("{tag}: WriteEio not absorbed: {e:?}"));
        assert_eq!(out, chaos.baseline, "{tag}: retry diverged");
        assert!(stats.spill_retries >= 1, "{tag}: retry not counted: {stats:?}");
    }
    let _ = std::fs::remove_dir_all(&chaos.dir);
}

/// After any injected failure the same budgets and directory must still
/// support a clean run — chaos leaks nothing that poisons later queries.
#[test]
fn failed_runs_do_not_poison_the_environment() {
    let chaos = Chaos::new("poison");
    for kind in [SpillFaultKind::WriteEnospc, SpillFaultKind::ReadBitFlip] {
        let plan = FaultPlan { spill_io: Some(SpillFault { nth: 1, kind }), ..FaultPlan::none() };
        let injector = FaultInjector::new(plan);
        let r = chaos.run(injector.clone());
        assert_eq!(injector.spill_io_fired(), 1, "{kind:?}: first ordinal must fire");
        assert!(r.is_err(), "{kind:?}: first-ordinal injection must fail the run");
        let (out, _) = chaos.run(FaultInjector::none()).expect("clean run after failure");
        assert_eq!(out, chaos.baseline, "{kind:?}: environment poisoned");
    }
    let _ = std::fs::remove_dir_all(&chaos.dir);
}

/// Cancellation between two level-1 buckets, while the store is reading
/// ahead of the consumer: runs parked on their tickets, one being decoded,
/// the rest still planned. The query ends with the typed error and leaves
/// nothing behind — no reserved byte in either budget, no scratch file,
/// and no liveness lock, which the store retires only after joining its
/// I/O workers.
#[test]
fn cancelling_between_buckets_with_reads_parked_leaves_nothing_behind() {
    let dir = std::env::temp_dir().join(format!("hsa-chaos-cancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let keys: Vec<u64> = (0..200_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let budget = MemoryBudget::limited(6 << 20);
    let disk = DiskBudget::limited(1 << 30);
    // The trigger is the run's first restore, made visible by a transient
    // (retried, harmless) fault on it: phase 2 has begun and all but one
    // of its buckets are still to come. A cancel that lands after the
    // last bucket anyway lets the query finish; then it is asked again.
    for _ in 0..3 {
        let first_read = SpillFault { nth: 1, kind: SpillFaultKind::ReadEio };
        let injector =
            FaultInjector::new(FaultPlan { spill_io: Some(first_read), ..FaultPlan::none() });
        let token = CancelToken::new();
        let env = ExecEnv::unrestricted()
            .with_budget(budget.clone())
            .with_disk_budget(disk.clone())
            .with_spill_dir(&dir)
            .with_faults(injector.clone())
            .with_cancel(token.clone());
        let finished = AtomicBool::new(false);
        let outcome = std::thread::scope(|scope| {
            scope.spawn(|| {
                // ORDERING: Relaxed — a stop flag; the scope's join orders the rest.
                while injector.spill_io_fired() == 0 && !finished.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                token.cancel();
            });
            let mut stream =
                AggStream::new(&[AggSpec::count()], &config(), &env, &ObsConfig::disabled())
                    .unwrap();
            for chunk in keys.chunks(8192).cycle().take(3 * keys.len().div_ceil(8192)) {
                stream.push(chunk, &[]).unwrap();
            }
            let outcome = stream.finish().map(|(out, _)| out.n_groups());
            // ORDERING: Relaxed — see above.
            finished.store(true, Ordering::Relaxed);
            outcome
        });
        assert_eq!(budget.outstanding(), 0, "memory reservations leaked");
        assert_eq!(disk.outstanding(), 0, "disk reservations leaked");
        common::assert_dir_empty(&dir);
        match outcome {
            Err(AggError::Cancelled(CancelReason::Requested)) => {
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
            Ok(groups) => assert_eq!(groups, keys.len(), "the late cancel changed the answer"),
            Err(other) => panic!("cancel surfaced as {other:?}"),
        }
    }
    panic!("three queries in a row finished before their cancel was seen");
}
