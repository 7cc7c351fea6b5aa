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
//! * the task timeline — with [`Recorder::traced`], each timed phase
//!   call's span and each event's instant, bounded per worker and kept
//!   under the deep part's lock; [`Recorder::trace_json`] renders it as
//!   Chrome trace-event JSON loadable in Perfetto;
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

/// Minor page faults this process has taken so far — field 10 of
/// `/proc/self/stat` — or `None` where that file is missing or
/// unreadable. Process-wide: a query's count is the difference of two
/// reads and includes whatever else the process faulted meanwhile. One
/// read costs about 10 µs, so it is taken per query, not per phase.
pub fn minor_faults() -> Option<u64> {
    parse_minflt(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Field 10 of a `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may hold spaces or parentheses itself, so fields
/// are counted from the last `)`.
fn parse_minflt(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// Pads a value to a cache line so per-worker shards never false-share.
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub T);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minflt_is_field_ten_whatever_the_command_name() {
        let line = "4242 (a) b (c) S 1 4242 4242 0 -1 4194560 1234 0 5 0 7 3 0 0 20 0 1 0";
        assert_eq!(parse_minflt(line), Some(1234));
        assert_eq!(parse_minflt("4242 (short"), None);
        assert_eq!(parse_minflt("4242 (x) S 1 2"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn the_process_count_is_readable_and_never_falls() {
        let before = minor_faults().expect("/proc/self/stat is readable on Linux");
        let after = minor_faults().expect("and stays readable");
        assert!(after >= before, "{before} → {after}");
    }
}
