//! Deterministic fault injection.
//!
//! Error paths are exactly the code that never runs in a healthy system,
//! so they rot unless something exercises them on purpose. A [`FaultPlan`]
//! names an injection point by ordinal — fail the Nth memory reservation,
//! panic in the Nth task, cancel after K input rows — and the driver
//! consults the shared [`FaultInjector`] counters at those points. Sweeping
//! N over a fixed workload visits every reservation and task of the run,
//! which is how the `faults::` and `chaos::` slices of `tests/scenarios.rs`
//! prove that each failure site surfaces a clean `Err` and leaks nothing;
//! [`SpillFaultKind::is_transient`] is their rule for what an I/O fault
//! must end in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What to inject, by ordinal. All counters are 1-based; `None` disables
/// that injection point.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the Nth memory reservation of the run with a budget error.
    pub fail_alloc: Option<u64>,
    /// Panic at the start of the Nth operator task (morsel or bucket).
    pub panic_in_task: Option<u64>,
    /// Trip the cancellation token once K input rows have been processed.
    pub cancel_after_rows: Option<u64>,
    /// Fail the Nth spill-file write with an I/O error *above* the store
    /// (at the driver's spill gate, before any file is created). The
    /// store-level faults below exercise the paths underneath.
    pub fail_spill: Option<u64>,
    /// Inject one storage-level I/O fault inside the spill file store:
    /// the Nth write or read operation (counted by kind) misbehaves as
    /// [`SpillFault::kind`] says. `None` disables the point.
    pub spill_io: Option<SpillFault>,
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        Self::default()
    }
}

/// One storage-level spill I/O fault: which operation ordinal fires and
/// how it misbehaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillFault {
    /// 1-based ordinal among operations of the kind's direction: write
    /// kinds count spill-file writes, read kinds count restores.
    pub nth: u64,
    /// How the selected operation misbehaves.
    pub kind: SpillFaultKind,
}

/// The flavor of an injected storage-level spill fault.
///
/// Transient flavors (`WriteEio`, `WriteShort`, `ReadEio`) must be healed
/// by the store's bounded retry — the query completes bit-identically.
/// Permanent flavors (`WriteEnospc`, `ReadBitFlip`, `ReadTruncate`) must
/// surface as a typed error, never as wrong rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpillFaultKind {
    /// The Nth spill write fails with `EIO` after a partial write
    /// (transient: the retry rewrites the file from scratch).
    WriteEio,
    /// The Nth spill write is torn: only a prefix reaches the file before
    /// an `Interrupted` error (transient: classic short-write semantics).
    WriteShort,
    /// The Nth spill write hits `ENOSPC` after a partial write
    /// (permanent: the partial file is unlinked and the error surfaces).
    WriteEnospc,
    /// The Nth restore fails with `EIO` before reading (transient).
    ReadEio,
    /// The Nth restore sees one payload bit flipped after the bytes leave
    /// the file (permanent: the extent CRC must catch it).
    ReadBitFlip,
    /// The file is truncated to half its length before the Nth restore
    /// (permanent: footer/extent verification must catch it).
    ReadTruncate,
}

impl SpillFaultKind {
    /// Whether this fault fires on the write path.
    pub fn is_write(self) -> bool {
        matches!(self, Self::WriteEio | Self::WriteShort | Self::WriteEnospc)
    }

    /// Whether this fault fires on the read (restore) path.
    fn is_read(self) -> bool {
        !self.is_write()
    }

    /// Whether the store's bounded retry is expected to heal this fault.
    pub fn is_transient(self) -> bool {
        matches!(self, Self::WriteEio | Self::WriteShort | Self::ReadEio)
    }
}

struct InjectState {
    plan: FaultPlan,
    allocs: AtomicU64,
    tasks: AtomicU64,
    rows: AtomicU64,
    spills: AtomicU64,
    spill_writes: AtomicU64,
    spill_reads: AtomicU64,
    spill_io_fired: AtomicU64,
}

/// Shared counters applying a [`FaultPlan`]. Cloning shares the counters,
/// so the ordinals are global across all workers of a run. The disabled
/// injector is a `None`: every probe is a single null check.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<InjectState>>,
}

impl FaultInjector {
    /// No injection.
    pub fn none() -> Self {
        Self { inner: None }
    }

    /// Inject according to `plan` (a plan with no points set behaves like
    /// [`FaultInjector::none`]).
    pub fn new(plan: FaultPlan) -> Self {
        if plan == FaultPlan::none() {
            return Self::none();
        }
        Self {
            inner: Some(Arc::new(InjectState {
                plan,
                allocs: AtomicU64::new(0),
                tasks: AtomicU64::new(0),
                rows: AtomicU64::new(0),
                spills: AtomicU64::new(0),
                spill_writes: AtomicU64::new(0),
                spill_reads: AtomicU64::new(0),
                spill_io_fired: AtomicU64::new(0),
            })),
        }
    }

    /// Count one memory reservation; `true` means this is the one the plan
    /// says must fail.
    pub fn should_fail_alloc(&self) -> bool {
        let Some(s) = &self.inner else { return false };
        let Some(n) = s.plan.fail_alloc else { return false };
        // ORDERING: Relaxed — the RMW's atomicity alone makes exactly one
        // caller see the trigger count; no other memory rides on it.
        s.allocs.fetch_add(1, Ordering::Relaxed) + 1 == n
    }

    /// Count one task start; `true` means this task must panic.
    pub fn should_panic_in_task(&self) -> bool {
        let Some(s) = &self.inner else { return false };
        let Some(n) = s.plan.panic_in_task else { return false };
        // ORDERING: Relaxed — same single-winner argument as `allocs`.
        s.tasks.fetch_add(1, Ordering::Relaxed) + 1 == n
    }

    /// Count one spill-file write; `true` means this write must fail with
    /// an injected I/O error.
    pub fn should_fail_spill(&self) -> bool {
        let Some(s) = &self.inner else { return false };
        let Some(n) = s.plan.fail_spill else { return false };
        // ORDERING: Relaxed — same single-winner argument as `allocs`.
        s.spills.fetch_add(1, Ordering::Relaxed) + 1 == n
    }

    /// Count `rows` processed rows; `true` exactly once, when the total
    /// first reaches the plan's threshold.
    pub fn should_cancel_after(&self, rows: u64) -> bool {
        let Some(s) = &self.inner else { return false };
        let Some(k) = s.plan.cancel_after_rows else { return false };
        // ORDERING: Relaxed — atomicity makes exactly one add cross the
        // threshold; which concrete rows counted does not matter.
        let before = s.rows.fetch_add(rows, Ordering::Relaxed);
        before < k && before + rows >= k
    }

    /// Whether the plan wants to cancel at some point (the driver then
    /// makes sure a cancellable token exists).
    pub fn plans_cancellation(&self) -> bool {
        self.inner.as_ref().is_some_and(|s| s.plan.cancel_after_rows.is_some())
    }

    /// Count one spill-file write operation; `Some(kind)` means this is
    /// the write the plan says must misbehave. Plans whose fault is a
    /// read kind do not consume write ordinals (and vice versa), so a
    /// sweep over `nth` visits exactly the operations of one direction.
    pub fn spill_write_fault(&self) -> Option<SpillFaultKind> {
        let s = self.inner.as_ref()?;
        let f = s.plan.spill_io.filter(|f| f.kind.is_write())?;
        // ORDERING: Relaxed — the RMW's atomicity alone makes exactly one
        // caller see the trigger count; no other memory rides on it.
        if s.spill_writes.fetch_add(1, Ordering::Relaxed) + 1 == f.nth {
            // ORDERING: Relaxed — statistics counter read after the run.
            s.spill_io_fired.fetch_add(1, Ordering::Relaxed);
            Some(f.kind)
        } else {
            None
        }
    }

    /// Count one spill-file read (restore) operation; `Some(kind)` means
    /// this restore must misbehave. See [`Self::spill_write_fault`].
    pub fn spill_read_fault(&self) -> Option<SpillFaultKind> {
        let s = self.inner.as_ref()?;
        let f = s.plan.spill_io.filter(|f| f.kind.is_read())?;
        // ORDERING: Relaxed — same single-winner argument as the writes.
        if s.spill_reads.fetch_add(1, Ordering::Relaxed) + 1 == f.nth {
            // ORDERING: Relaxed — statistics counter read after the run.
            s.spill_io_fired.fetch_add(1, Ordering::Relaxed);
            Some(f.kind)
        } else {
            None
        }
    }

    /// How many storage-level spill faults actually fired. Ordinal sweeps
    /// use this to detect that `nth` ran past the last injectable
    /// operation of the workload.
    pub fn spill_io_fired(&self) -> u64 {
        // ORDERING: Relaxed — statistics counter read after the run.
        self.inner.as_ref().map_or(0, |s| s.spill_io_fired.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "FaultInjector::none"),
            Some(s) => f.debug_struct("FaultInjector").field("plan", &s.plan).finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let f = FaultInjector::none();
        assert!(!f.should_fail_alloc());
        assert!(!f.should_panic_in_task());
        assert!(!f.should_cancel_after(1 << 40));
        assert!(!f.plans_cancellation());
        let noop = FaultInjector::new(FaultPlan::none());
        assert!(!noop.should_fail_alloc());
    }

    #[test]
    fn nth_alloc_fails_exactly_once() {
        let f = FaultInjector::new(FaultPlan { fail_alloc: Some(3), ..FaultPlan::none() });
        let fired: Vec<bool> = (0..5).map(|_| f.should_fail_alloc()).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
    }

    #[test]
    fn nth_task_panics_exactly_once() {
        let f = FaultInjector::new(FaultPlan { panic_in_task: Some(1), ..FaultPlan::none() });
        assert!(f.should_panic_in_task());
        assert!(!f.should_panic_in_task());
    }

    #[test]
    fn row_threshold_fires_once_on_crossing() {
        let f = FaultInjector::new(FaultPlan { cancel_after_rows: Some(100), ..FaultPlan::none() });
        assert!(f.plans_cancellation());
        assert!(!f.should_cancel_after(60));
        assert!(f.should_cancel_after(60));
        assert!(!f.should_cancel_after(60));
    }

    #[test]
    fn nth_spill_fails_exactly_once() {
        let f = FaultInjector::new(FaultPlan { fail_spill: Some(2), ..FaultPlan::none() });
        let fired: Vec<bool> = (0..4).map(|_| f.should_fail_spill()).collect();
        assert_eq!(fired, vec![false, true, false, false]);
        assert!(!FaultInjector::none().should_fail_spill());
    }

    #[test]
    fn spill_io_write_faults_fire_on_the_nth_write_only() {
        let f = FaultInjector::new(FaultPlan {
            spill_io: Some(SpillFault { nth: 2, kind: SpillFaultKind::WriteEio }),
            ..FaultPlan::none()
        });
        assert_eq!(f.spill_write_fault(), None);
        assert_eq!(f.spill_write_fault(), Some(SpillFaultKind::WriteEio));
        assert_eq!(f.spill_write_fault(), None);
        // A write-kind plan never consumes read ordinals.
        assert_eq!(f.spill_read_fault(), None);
        assert_eq!(f.spill_io_fired(), 1);
    }

    #[test]
    fn spill_io_read_faults_do_not_consume_write_ordinals() {
        let f = FaultInjector::new(FaultPlan {
            spill_io: Some(SpillFault { nth: 1, kind: SpillFaultKind::ReadBitFlip }),
            ..FaultPlan::none()
        });
        assert_eq!(f.spill_write_fault(), None);
        assert_eq!(f.spill_read_fault(), Some(SpillFaultKind::ReadBitFlip));
        assert_eq!(f.spill_read_fault(), None);
        assert_eq!(f.spill_io_fired(), 1);
        assert_eq!(FaultInjector::none().spill_write_fault(), None);
        assert_eq!(FaultInjector::none().spill_io_fired(), 0);
    }

    #[test]
    fn spill_fault_kinds_classify() {
        use SpillFaultKind::*;
        for k in [WriteEio, WriteShort, WriteEnospc] {
            assert!(k.is_write() && !k.is_read(), "{k:?}");
        }
        for k in [ReadEio, ReadBitFlip, ReadTruncate] {
            assert!(k.is_read() && !k.is_write(), "{k:?}");
        }
        for k in [WriteEio, WriteShort, ReadEio] {
            assert!(k.is_transient(), "{k:?}");
        }
        for k in [WriteEnospc, ReadBitFlip, ReadTruncate] {
            assert!(!k.is_transient(), "{k:?}");
        }
    }

    #[test]
    fn clones_share_counters() {
        let f = FaultInjector::new(FaultPlan { fail_alloc: Some(2), ..FaultPlan::none() });
        let g = f.clone();
        assert!(!f.should_fail_alloc());
        assert!(g.should_fail_alloc());
    }
}
