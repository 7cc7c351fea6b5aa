//! Observability core for the aggregation operator.
//!
//! The paper's claims live on *where time and rows go per pass* (Figures
//! 4, 5, 9) and on micro-behavior like probe lengths at 25% fill (§4.1)
//! and write-combining flushes (§4.2). This crate holds the cells every
//! layer records into and the views built from them:
//!
//! * [`Recorder`] — one cache-line-padded shard of cells per worker, so
//!   workers never share a line. The [`Counter`] and per-level
//!   [`LevelCounter`] cells and the worker's current `(level, phase)` are
//!   always on, as relaxed atomics: they are the only place an operator
//!   event is counted, and `hsa-core` lowers its `OpStats` from them.
//!   [`Recorder::deep`] adds [`Histogram`]s, phase cells and α samples
//!   behind one uncontended mutex per shard. [`Recorder::snapshot`] copies
//!   the shards into a [`MetricsSnapshot`] at any time, mid-query too;
//! * [`ProfileTree`] — the EXPLAIN ANALYZE phase tree (query → level →
//!   phase), a view of the snapshot's [`PhaseCell`]s;
//! * [`Tracer`] — bounded per-worker span buffers, one mutex each,
//!   emitting Chrome trace-event JSON ([`Tracer::to_chrome_json`])
//!   loadable in Perfetto;
//! * [`ProgressSampler`] — the background heartbeat thread that reads a
//!   query's recorder while it runs;
//! * [`json`] — a dependency-free JSON writer/parser used by every
//!   machine-readable report in the workspace;
//! * [`Histogram`] — fixed-size log₂-bucketed histograms of `u64`
//!   samples, plain cells, mergeable.
//!
//! Every cell is sound to touch from any thread at any time; the crate
//! has no `unsafe` code.

#![forbid(unsafe_code)]

pub mod json;

mod hist;
mod profile;
mod progress;
mod recorder;
mod trace;

pub use hist::{Histogram, HIST_BUCKETS};
pub use profile::{Phase, PhaseCell, ProfileTree, PROFILE_LEVELS};
pub use progress::{BudgetProbe, ProgressSampler, ProgressSink};
pub use recorder::{Counter, Hist, LevelCounter, MetricsSnapshot, Recorder, WorkerSnapshot};
pub use trace::{TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY};

/// Pads a value to a cache line so per-worker shards never false-share.
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub T);
