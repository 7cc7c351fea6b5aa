//! Robustness primitives for the aggregation operator.
//!
//! The operator is cache-*bounded* by design (§4.1: "one or very few hash
//! tables per thread"), but a production `GROUP BY` also has to bound the
//! rest of the pipeline and fail cleanly when it cannot. This crate holds
//! the building blocks, deliberately free of any operator knowledge so
//! every layer of the workspace can use them:
//!
//! * [`AggError`] — the typed error taxonomy of the fallible operator API.
//! * [`MemoryBudget`] / [`Reservation`] — shared atomic reserve/release
//!   accounting with RAII release, so reservations cannot leak across
//!   early returns, cancelled tasks, or contained panics.
//! * [`DiskBudget`] / [`DiskReservation`] — the same accounting for spill
//!   disk space, so a bounded spill directory degrades with a typed error
//!   instead of a mid-write `ENOSPC`.
//! * [`CancelToken`] — cooperative cancellation with an optional deadline,
//!   checked at morsel and bucket-task granularity.
//! * [`FaultPlan`] / [`FaultInjector`] — a deterministic fault-injection
//!   harness (fail the Nth allocation, panic in the Nth task, cancel after
//!   K rows, misbehave on the Nth spill write/read) for exercising every
//!   error path without mocking allocators or filesystems.
//! * [`classify_io`] / [`RetryPolicy`] — the spill I/O error taxonomy
//!   (transient vs permanent) and a clockless bounded-retry policy whose
//!   decisions depend only on the attempt counter, keeping fault sweeps
//!   and Miri runs deterministic.
//! * [`AdmissionController`] / [`QueryGrant`] — the serving-mode ledger
//!   that carves per-query memory/disk slices, deadlines, and cancel
//!   tokens out of global budgets, with typed
//!   [`AdmissionOutcome::Denied`] / [`AdmissionOutcome::Queued`] outcomes
//!   and RAII release of every slice.
//!
//! Everything here is dependency-free and costs a single null check when
//! disabled: the unlimited budget, the never-cancelled token, and the
//! empty fault plan are all a `None` behind an `Option<Arc<_>>`.

#![forbid(unsafe_code)]

mod account;
mod admission;
mod budget;
mod cancel;
mod disk;
mod error;
mod inject;
mod io;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDenied, AdmissionOutcome, AdmissionRequest,
    QueryGrant,
};
pub use budget::{MemoryBudget, Reservation};
pub use cancel::{CancelReason, CancelToken};
pub use disk::{DiskBudget, DiskReservation};
pub use error::AggError;
pub use inject::{FaultInjector, FaultPlan, SpillFault, SpillFaultKind};
pub use io::{classify_io, is_transient_io, IoClass, RetryPolicy};
