//! The per-task observability handle.
//!
//! [`Obs`] is the one handle a routine records through: it borrows the
//! query's [`Recorder`] from the driver context and carries the worker
//! index of the task currently running, so building one per task touches
//! no shared reference count and every recording call lands in the
//! calling worker's own shard. An event is recorded by one call:
//! [`Obs::count`] / [`Obs::count_at`] for the always-on counter cells
//! `OpStats` is lowered from, [`Obs::event`] when the event also marks
//! the timeline. Histograms, α samples and phase cells are the
//! recorder's deep part and the timeline is off unless asked for;
//! recording into an absent one is a null check, so the routines are
//! instrumented unconditionally.
//!
//! # Phase timing
//!
//! [`Obs::phase_start`]/[`Obs::phase_end`] bracket one phase of the
//! operator (see [`Phase`]) and record **exclusive** time: a per-thread
//! cell accumulates the total duration of every completed phase on this
//! thread, so an enclosing phase can subtract the time its children already
//! claimed (a spill inside a seal lands in `spill`, not twice). The cell is
//! per thread, not per task, so the driver's own phase around a scope
//! subtracts the tasks the driving thread ran inside it. The same call
//! is the timeline's span: with a trace, `phase_end` also appends the
//! phase's start and **inclusive** duration to the worker's timeline.
//! Entering a phase always stores the worker's position (the
//! `(level, phase)` the progress heartbeat shows); without deep metrics
//! or a trace `phase_start` returns `None` without reading the clock.

use hsa_hashtbl::AggTable;
use hsa_obs::{Counter, Hist, LevelCounter, Phase, PhaseCell, Recorder};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// Total nanoseconds of phases completed on this thread so far; the
    /// delta across a phase's lifetime is its children's time.
    static NESTED: Cell<u64> = const { Cell::new(0) };
}

/// Observability context of one task: where to record, and as whom.
pub(crate) struct Obs<'a> {
    recorder: &'a Recorder,
    worker: usize,
}

/// An in-flight phase measurement returned by [`Obs::phase_start`].
pub(crate) struct PhaseTimer {
    level: u32,
    phase: Phase,
    t0: Instant,
    nested0: u64,
}

impl<'a> Obs<'a> {
    pub(crate) fn new(recorder: &'a Recorder, worker: usize) -> Self {
        Self { recorder, worker }
    }

    /// Add `n` to counter `c`.
    #[inline]
    pub(crate) fn count(&self, c: Counter, n: u64) {
        self.recorder.add(self.worker, c, n);
    }

    /// Add `n` to per-level counter `c` at `level`.
    #[inline]
    pub(crate) fn count_at(&self, c: LevelCounter, level: u32, n: u64) {
        self.recorder.add_level(self.worker, c, level, n);
    }

    /// One occurrence of an event that is both counted and marked on the
    /// timeline as the instant `name`.
    pub(crate) fn event(&self, c: Counter, name: &'static str, args: &[(&'static str, u64)]) {
        self.count(c, 1);
        self.recorder.instant(self.worker, name, args);
    }

    /// Record `value` into histogram `h` (deep metrics).
    #[inline]
    pub(crate) fn observe(&self, h: Hist, value: u64) {
        self.recorder.observe(self.worker, h, value);
    }

    /// Record the reduction factor observed at one seal (deep metrics).
    #[inline]
    pub(crate) fn alpha(&self, alpha: f64) {
        self.recorder.record_alpha(self.worker, alpha);
    }

    /// Enter one phase at `level`: store it as the worker's position and,
    /// with deep metrics or a trace, begin timing it. Returns `None` —
    /// without touching the clock — with neither.
    #[inline]
    pub(crate) fn phase_start(&self, level: u32, phase: Phase) -> Option<PhaseTimer> {
        self.recorder.set_position(self.worker, level, phase);
        self.recorder.is_timed().then(|| PhaseTimer {
            level,
            phase,
            t0: Instant::now(),
            nested0: NESTED.get(),
        })
    }

    /// [`Obs::phase_start`] for a phase that began at `t0`, before this
    /// handle existed (the set-up of a query, timed from its first line).
    pub(crate) fn phase_since(&self, t0: Instant, level: u32, phase: Phase) -> Option<PhaseTimer> {
        let timer = self.phase_start(level, phase)?;
        Some(PhaseTimer { t0, ..timer })
    }

    /// Take `nanos` out of the phases open on this thread, as a child
    /// phase would: time the thread spent parked, which is no phase's.
    /// Untimed queries touch nothing.
    pub(crate) fn exclude(&self, nanos: u64) {
        if self.recorder.is_timed() {
            NESTED.set(NESTED.get().saturating_add(nanos));
        }
    }

    /// Finish a phase: fold its exclusive time and row/byte deltas into
    /// the recorder's `(worker, level, phase)` cell, and with a trace
    /// append its span to the worker's timeline.
    pub(crate) fn phase_end(
        &self,
        timer: Option<PhaseTimer>,
        rows_in: u64,
        rows_out: u64,
        bytes: u64,
    ) {
        let Some(t) = timer else { return };
        let total = t.t0.elapsed().as_nanos() as u64;
        let child = NESTED.get().saturating_sub(t.nested0);
        self.recorder.phase(
            self.worker,
            t.level,
            t.phase,
            PhaseCell { nanos: total.saturating_sub(child), calls: 1, rows_in, rows_out, bytes },
            t.t0,
            total,
        );
        NESTED.set(t.nested0.saturating_add(total));
    }

    /// Begin a phase that ends when the returned guard drops — on every
    /// exit path including error returns and contained panics. Used for
    /// [`Phase::Driver`] wrappers around whole task bodies, where the
    /// nested-time accounting leaves only the dispatch overhead in the
    /// cell; row/byte deltas stay zero.
    pub(crate) fn phase_scope(&self, level: u32, phase: Phase) -> PhaseScope<'_> {
        PhaseScope { obs: self, timer: self.phase_start(level, phase) }
    }

    /// Flush a table's locally collected probe metrics into the recorder.
    /// Called at seal time; a table without metrics enabled contributes
    /// nothing.
    pub(crate) fn flush_table_metrics(&self, table: &mut AggTable) {
        if let Some(m) = table.take_metrics() {
            self.count(Counter::TableInserts, m.inserts);
            self.count(Counter::ProbeSteps, m.probe_steps);
            self.recorder.merge_hist(self.worker, Hist::ProbeLen, &m.probe_len);
            self.recorder.merge_hist(self.worker, Hist::BlockDisplacement, &m.displacement);
        }
    }
}

/// RAII wrapper completing a phase on drop (see [`Obs::phase_scope`]).
pub(crate) struct PhaseScope<'a> {
    obs: &'a Obs<'a>,
    timer: Option<PhaseTimer>,
}

impl Drop for PhaseScope<'_> {
    fn drop(&mut self) {
        self.obs.phase_end(self.timer.take(), 0, 0, 0);
    }
}

/// What the routines' unit tests record into when they run without a
/// driver context: one counters-only shard, read back as [`OpStats`].
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::stats::OpStats;

    pub(crate) struct TestObs {
        recorder: Recorder,
    }

    impl TestObs {
        pub(crate) fn new() -> Self {
            Self { recorder: Recorder::counters(1) }
        }

        pub(crate) fn obs(&self) -> Obs<'_> {
            Obs::new(&self.recorder, 0)
        }

        pub(crate) fn stats(&self) -> OpStats {
            OpStats::lower(&self.recorder.snapshot().merged(), 0, 0)
        }

        /// A counter `OpStats` does not carry.
        pub(crate) fn counter(&self, c: Counter) -> u64 {
            self.recorder.snapshot().merged().counter(c)
        }
    }
}
