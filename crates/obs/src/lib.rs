//! Observability core for the aggregation operator.
//!
//! The paper's claims live on *where time and rows go per pass* (Figures
//! 4, 5, 9) and on micro-behavior like probe lengths at 25% fill (§4.1)
//! and write-combining flushes (§4.2). This crate holds the cells every
//! layer records into and the views built from them:
//!
//! * [`Recorder`] — one cache-line-padded shard of plain `u64` cells per
//!   worker (no hot-path atomics, no false sharing). The [`Counter`] and
//!   per-level [`LevelCounter`] cells are always on: they are the only
//!   place an operator event is counted, and `hsa-core` lowers its
//!   `OpStats` from them. [`Recorder::deep`] adds [`Histogram`]s, phase
//!   cells and α samples. Shards are copied into a [`MetricsSnapshot`]
//!   once the operator has quiesced;
//! * [`ProfileTree`] — the EXPLAIN ANALYZE phase tree (query → level →
//!   phase), a view of the snapshot's [`PhaseCell`]s;
//! * [`Tracer`] — bounded per-worker span buffers emitting Chrome
//!   trace-event JSON ([`Tracer::to_chrome_json`]) loadable in Perfetto;
//! * [`ProgressGauge`] / [`ProgressSampler`] — relaxed-atomic live
//!   progress cells plus the background heartbeat thread that reads them
//!   (the recorder's shards themselves must never be read live);
//! * [`json`] — a dependency-free JSON writer/parser used by every
//!   machine-readable report in the workspace;
//! * [`Histogram`] — fixed-size log₂-bucketed histograms of `u64`
//!   samples, plain cells, mergeable.
//!
//! # Sharding contract
//!
//! [`Recorder`] and [`Tracer`] are indexed by *worker* and hold plain
//! memory, not atomics: a given worker index is used from one thread at a
//! time (the work-stealing pool's `worker_index` gives exactly this) and
//! snapshots/serialization happen only after those threads have quiesced.
//! `recorder.rs` states the contract in full; it holds on every query,
//! since the counter cells are always on.

pub mod json;

mod hist;
mod profile;
mod progress;
mod recorder;
mod trace;

pub use hist::{Histogram, HIST_BUCKETS};
pub use profile::{Phase, PhaseCell, ProfileTree, PROFILE_LEVELS};
pub use progress::{BudgetProbe, ProgressGauge, ProgressSampler, ProgressSink};
pub use recorder::{Counter, Hist, LevelCounter, MetricsSnapshot, Recorder, WorkerSnapshot};
pub use trace::{TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY};

/// Pads a value to a cache line so per-worker shards never false-share.
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub T);
