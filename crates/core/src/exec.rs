//! Execution environment: budget, cancellation, fault injection, and the
//! spill store the budget can degrade into.

use crate::obs::Obs;
use crate::sink::Pending;
use hsa_columnar::{DepotAccount, Run, RunHandle, RunStore, SpillConfig};
use hsa_fault::{AggError, CancelToken, DiskBudget, FaultInjector, MemoryBudget, Reservation};
use hsa_obs::{Counter, Hist, LevelCounter, Phase};
use std::path::PathBuf;
use std::time::Instant;

/// The robustness controls of one operator invocation: a shared memory
/// budget, a cooperative cancellation token, an optional spill directory,
/// and (for tests) a fault injector. The default is fully unrestricted and
/// adds one null check per control point to the fast path.
#[derive(Clone, Debug, Default)]
pub struct ExecEnv {
    /// Memory budget all growth sites reserve against.
    pub budget: MemoryBudget,
    /// Cancellation token polled at morsel and bucket-task boundaries.
    pub cancel: CancelToken,
    /// Deterministic fault injection (see `hsa_fault::FaultPlan`).
    pub faults: FaultInjector,
    /// Spill directory for out-of-core degradation. When set, a denied
    /// run-materialization reservation is downgraded into a flush to disk
    /// instead of failing the query; when `None`, budget exhaustion at
    /// those sites remains a hard `AggError::BudgetExceeded`.
    pub spill_dir: Option<PathBuf>,
    /// Byte cap for the spill directory (`--spill-limit`). Spill writes
    /// reserve their exact file size against this budget; a denial is the
    /// end of the degradation ladder and surfaces as a typed
    /// `AggError::DiskBudgetExceeded`. Unlimited by default.
    pub disk: DiskBudget,
    /// Spill I/O shape: the number of background I/O worker threads (0 =
    /// writes and restores run on the calling thread). Defaults to one
    /// worker.
    pub spill: SpillConfig,
}

impl ExecEnv {
    /// No budget, no cancellation, no injection, no spilling.
    pub fn unrestricted() -> Self {
        Self::default()
    }

    /// Replace the memory budget.
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replace the cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Enable spilling to the given directory (created on first use).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Replace the spill-space budget.
    pub fn with_disk_budget(mut self, disk: DiskBudget) -> Self {
        self.disk = disk;
        self
    }
}

/// The allocation gate the routines reserve memory through: budget +
/// injector + spill store + depot account, and the resident runs a denied
/// request may reclaim. Borrowed from the driver context and passed to
/// every pass that materializes runs; what happens at the gate is counted
/// through the caller's [`Obs`].
#[derive(Clone, Copy)]
pub(crate) struct Gate<'a> {
    pub(crate) budget: &'a MemoryBudget,
    pub(crate) faults: &'a FaultInjector,
    pub(crate) store: &'a RunStore,
    /// The query's account at the chunk depot: every chunk a run is
    /// materialized in is lent through it.
    pub(crate) depot: &'a DepotAccount,
    /// Resident runs waiting for their tasks ([`Gate::reserve_or_reclaim`]).
    pub(crate) pending: &'a Pending,
}

impl Gate<'_> {
    /// Reserve `bytes`, applying fault injection first. Injected denials
    /// report `limit: 0` — the marker the degradation paths use to tell
    /// "must surface" from "may degrade" (a real limit is never 0: a
    /// zero-byte budget denies everything, so degradation is moot there
    /// too).
    pub(crate) fn reserve(&self, bytes: u64, obs: &Obs) -> Result<Reservation, AggError> {
        let granted = if self.faults.should_fail_alloc() {
            Err(AggError::BudgetExceeded { requested: bytes, limit: 0, reserved: 0 })
        } else {
            self.budget.try_reserve(bytes)
        };
        granted.inspect_err(|_| obs.count(Counter::BudgetDenials, 1))
    }

    /// Reserve `bytes` for a request that has no rows of its own to spill
    /// (an output block, a grow-merge table, the smallest worker table).
    /// A denial that [`Gate::can_spill`] reclaims: resident runs waiting
    /// for their tasks are spilled, furthest from use first, until the
    /// request fits ([`Pending::reclaim`]), each round one batch and one
    /// budget downgrade. It fails only when nothing resident is left.
    pub(crate) fn reserve_or_reclaim(
        &self,
        bytes: u64,
        obs: &Obs,
    ) -> Result<Reservation, AggError> {
        loop {
            let e = match self.reserve(bytes, obs) {
                Ok(res) => return Ok(res),
                Err(e) => e,
            };
            let AggError::BudgetExceeded { requested, limit, reserved } = e else {
                return Err(e);
            };
            if !self.can_spill(&e) {
                return Err(e);
            }
            let need = (reserved + requested).saturating_sub(limit).max(1);
            let runs = self.pending.reclaim(need, |runs| self.spill_batch(runs, obs))?;
            if runs == 0 {
                return Err(e);
            }
            obs.event(
                Counter::BudgetDowngrades,
                "reclaim_spill",
                &[("runs", runs as u64), ("bytes", need)],
            );
        }
    }

    /// Whether a denied reservation at a run-materialization site may be
    /// downgraded into a spill: the denial must be degradable and a spill
    /// directory must be configured.
    pub(crate) fn can_spill(&self, e: &AggError) -> bool {
        is_degradable(e) && self.store.can_spill()
    }

    /// Flush a batch of runs to the spill store, returning their handles
    /// in order, applying fault injection first and recording spill
    /// observability. The runs are consumed: with a background I/O worker
    /// the store hands their columns to the writer thread without copying
    /// them, and they are released only once they are on disk. The call
    /// returns when the store has accepted the last of them, which it
    /// delays while too many accepted bytes are still unwritten — so the
    /// caller's reservation for the runs may be released on return.
    ///
    /// Producers hand over everything they flush at one moment (a sealed
    /// table's per-digit sub-runs, a partition writer's whole content):
    /// the store lays it out in a few shared files instead of one per run
    /// — on filesystems where inode creation dominates small writes, that
    /// is the difference between spilling being viable and not. One
    /// injected-fault ordinal and one observability span cover the whole
    /// batch (it is one logical write); the counters still see every run.
    pub(crate) fn spill_batch(
        &self,
        runs: Vec<Run>,
        obs: &Obs,
    ) -> Result<Vec<RunHandle>, AggError> {
        if self.faults.should_fail_spill() {
            return Err(AggError::SpillFailed { message: "injected fault: spill write".into() });
        }
        let level = runs.first().map_or(0, |r| r.level);
        let rows: u64 = runs.iter().map(|r| r.len() as u64).sum();
        let pt = obs.phase_start(level, Phase::Spill);
        let t0 = Instant::now();
        let handles = self.store.spill_batch(runs)?;
        let total: u64 = handles.iter().map(RunHandle::spilled_bytes).sum();
        obs.count_at(LevelCounter::SpilledRuns, level, handles.len() as u64);
        obs.count(Counter::SpilledBytes, total);
        obs.observe(Hist::SpillNanos, t0.elapsed().as_nanos() as u64);
        obs.phase_end(pt, rows, 0, total);
        Ok(handles)
    }

    /// Materialize a handle's rows, reading spilled runs back from disk
    /// (timed and counted). Resident handles pass through untouched.
    /// The recorded restore time is what the consuming thread spent here:
    /// next to nothing when the store had read the run ahead
    /// ([`RunStore::plan_restores`]) and the rows were parked, the wait
    /// when a worker was still decoding it, and the whole read and decode
    /// when this thread got to the run first or the store has no I/O
    /// workers.
    ///
    /// Restored rows are transient working-set memory of the consuming
    /// task and are not re-reserved against the budget: the run was
    /// spilled precisely because the budget had no room, and the consumer
    /// is about to shrink it (aggregate it or re-partition it into
    /// bounded sub-runs).
    pub(crate) fn restore(&self, handle: RunHandle, obs: &Obs) -> Result<Run, AggError> {
        if !handle.is_spilled() {
            return handle.into_run();
        }
        let bytes = handle.spilled_bytes();
        let pt = obs.phase_start(handle.level(), Phase::Restore);
        let t0 = Instant::now();
        let run = handle.into_run()?;
        obs.count(Counter::RestoredRuns, 1);
        obs.count(Counter::RestoredBytes, bytes);
        obs.observe(Hist::RestoreNanos, t0.elapsed().as_nanos() as u64);
        obs.phase_end(pt, 0, run.len() as u64, bytes);
        Ok(run)
    }
}

/// Whether a reservation failure may be degraded around (shrink the
/// table, fall back to partitioning, spill the run) rather than surfaced
/// immediately.
pub(crate) fn is_degradable(e: &AggError) -> bool {
    matches!(e, AggError::BudgetExceeded { limit, .. } if *limit > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::spill_store;
    use crate::obs::testing::TestObs;
    use hsa_fault::FaultPlan;

    #[test]
    fn env_builders_compose() {
        let mut env = ExecEnv::unrestricted()
            .with_budget(MemoryBudget::limited(1024))
            .with_cancel(CancelToken::new())
            .with_spill_dir("/tmp/hsa-spill-test")
            .with_disk_budget(DiskBudget::limited(4096));
        env.faults = FaultInjector::new(FaultPlan { fail_alloc: Some(1), ..FaultPlan::none() });
        assert_eq!(env.budget.limit(), Some(1024));
        assert!(env.cancel.check().is_ok());
        assert!(env.faults.should_fail_alloc());
        assert_eq!(env.spill_dir.as_deref(), Some(std::path::Path::new("/tmp/hsa-spill-test")));
        assert_eq!(env.disk.limit(), Some(4096));
        assert!(ExecEnv::default().spill_dir.is_none());
        assert_eq!(ExecEnv::default().disk.limit(), None);
        assert_eq!(ExecEnv::default().spill, SpillConfig::default());
    }

    #[test]
    fn gate_counts_denials_and_marks_injected() {
        let rec = TestObs::new();
        let budget = MemoryBudget::limited(100);
        let faults = FaultInjector::new(FaultPlan { fail_alloc: Some(1), ..FaultPlan::none() });
        let store = RunStore::in_memory();
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let obs = rec.obs();

        let injected = gate.reserve(10, &obs).unwrap_err();
        assert!(!is_degradable(&injected), "injected failures must surface");
        assert!(!gate.can_spill(&injected));

        let ok = gate.reserve(60, &obs).unwrap();
        assert_eq!(budget.outstanding(), 60);
        let real = gate.reserve(60, &obs).unwrap_err();
        assert!(is_degradable(&real), "real denials may degrade");
        assert!(!gate.can_spill(&real), "no spill dir: denial stays a denial");
        drop(ok);

        assert_eq!(rec.stats().budget_denials, 2);
        assert_eq!(budget.outstanding(), 0);
    }

    #[test]
    fn gate_spills_and_restores_through_a_file_store() {
        let dir = std::env::temp_dir().join(format!("hsa-gate-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = TestObs::new();
        let budget = MemoryBudget::unlimited();
        let faults = FaultInjector::none();
        let store = spill_store(&dir);
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let obs = rec.obs();

        let denied = AggError::BudgetExceeded { requested: 1, limit: 64, reserved: 64 };
        assert!(gate.can_spill(&denied));

        let run = Run::from_rows(&[1, 2, 3], &[&[10, 20, 30]]);
        let handle = gate.spill_batch(vec![run.clone()], &obs).unwrap().pop().unwrap();
        assert!(handle.is_spilled());
        let back = gate.restore(handle, &obs).unwrap();
        assert_eq!(back.keys, run.keys);
        assert_eq!(back.cols, run.cols);

        let s = rec.stats();
        assert_eq!(s.spilled_runs(), 1);
        assert_eq!(s.restored_runs, 1);
        assert_eq!(s.spilled_bytes, s.restored_bytes);
        assert!(s.spilled_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_spill_failure_surfaces_as_spill_error() {
        let dir = std::env::temp_dir().join(format!("hsa-gate-spillfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = TestObs::new();
        let budget = MemoryBudget::unlimited();
        let faults = FaultInjector::new(FaultPlan { fail_spill: Some(1), ..FaultPlan::none() });
        let store = spill_store(&dir);
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let obs = rec.obs();

        let run = Run::from_rows(&[1], &[]);
        let err = gate.spill_batch(vec![run.clone()], &obs).unwrap_err();
        assert!(matches!(err, AggError::SpillFailed { .. }));
        // The next write goes through.
        assert!(gate.spill_batch(vec![run], &obs).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
