//! Live progress: a lock-free gauge the workers update at coarse
//! boundaries, and a background sampler thread that turns it into
//! heartbeat lines.
//!
//! The [`crate::Recorder`]'s shards are plain `UnsafeCell` memory that may
//! only be read after quiescence — a live sampler must not touch them. The
//! [`ProgressGauge`] is the concurrent mirror: one cache-padded pair of
//! relaxed atomics per worker (row count, packed phase/level), updated
//! once per phase boundary rather than per row, so the hot path cost is a
//! couple of relaxed stores per block. The [`ProgressSampler`] owns a
//! thread that reads the gauge every interval and emits one line per tick
//! through the caller's sink; dropping the sampler — including during a
//! panic unwind — signals and joins the thread.

use crate::profile::Phase;
use crate::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct GaugeCell {
    /// Rows consumed by this worker so far.
    rows: AtomicU64,
    /// Packed current position: `(level + 1) << 8 | (phase + 1)`; 0 = idle.
    state: AtomicU64,
}

struct GaugeInner {
    cells: Vec<CachePadded<GaugeCell>>,
}

/// Cheap cloneable handle to the per-worker progress cells, or a no-op
/// when built with [`ProgressGauge::disabled`]. Unlike the recorder this
/// is safely concurrent: workers store, the sampler loads, all relaxed.
#[derive(Clone)]
pub struct ProgressGauge {
    inner: Option<Arc<GaugeInner>>,
}

impl ProgressGauge {
    /// A gauge whose every operation is a null check.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A gauge with one cell per worker.
    pub fn enabled(workers: usize) -> Self {
        let cells = (0..workers.max(1))
            .map(|_| CachePadded(GaugeCell { rows: AtomicU64::new(0), state: AtomicU64::new(0) }))
            .collect();
        Self { inner: Some(Arc::new(GaugeInner { cells })) }
    }

    /// Whether progress is actually tracked.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Publish worker `worker`'s current position.
    #[inline]
    pub fn set_state(&self, worker: usize, level: u32, phase: Phase) {
        if let Some(inner) = self.inner.as_deref() {
            let packed = ((u64::from(level) + 1) << 8) | (phase as u64 + 1);
            // ORDERING: Relaxed — the gauge is an advisory monitor; the
            // sampler tolerates stale or torn-across-cells views and no
            // other memory is published through it.
            inner.cells[worker].0.state.store(packed, Ordering::Relaxed);
        }
    }

    /// Add `n` rows consumed by worker `worker`.
    #[inline]
    pub fn add_rows(&self, worker: usize, n: u64) {
        if let Some(inner) = self.inner.as_deref() {
            // ORDERING: Relaxed — monotonic counter read only for display.
            inner.cells[worker].0.rows.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Total rows consumed across workers (0 when disabled).
    pub fn total_rows(&self) -> u64 {
        match self.inner.as_deref() {
            None => 0,
            // ORDERING: Relaxed — display-only aggregate, staleness is fine.
            Some(inner) => inner.cells.iter().map(|c| c.0.rows.load(Ordering::Relaxed)).sum(),
        }
    }

    /// Current `(level, phase)` per worker; `None` entries are idle.
    pub fn worker_states(&self) -> Vec<Option<(u32, Phase)>> {
        match self.inner.as_deref() {
            None => Vec::new(),
            Some(inner) => inner
                .cells
                .iter()
                // ORDERING: Relaxed — display-only, staleness is fine.
                .map(|c| unpack(c.0.state.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

fn unpack(packed: u64) -> Option<(u32, Phase)> {
    if packed == 0 {
        return None;
    }
    let level = ((packed >> 8) - 1) as u32;
    let phase_idx = (packed & 0xff) as usize;
    Phase::ALL.get(phase_idx.wrapping_sub(1)).map(|&p| (level, p))
}

/// Probe returning `(outstanding_bytes, limit_bytes)` of the memory
/// budget, or `None` when the budget is unlimited.
pub type BudgetProbe = Box<dyn Fn() -> Option<(u64, u64)> + Send>;

/// Line sink for heartbeat output (the engine passes stderr).
pub type ProgressSink = Box<dyn Fn(&str) + Send>;

struct Shutdown {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// Background thread emitting one progress line per interval. Stops and
/// joins on drop, so an unwinding query tears it down deterministically.
pub struct ProgressSampler {
    shutdown: Arc<Shutdown>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressSampler {
    /// Start a sampler over `gauge`: one heartbeat line per `interval`
    /// through `sink`. With a `query` tag every line leads with
    /// `[progress q<tag>]`, so queries running concurrently on one shared
    /// runtime stay attributable; the tag is a plain string (the engine
    /// passes its query id) so this crate stays scheduler-agnostic.
    pub fn start(
        gauge: ProgressGauge,
        interval: Duration,
        budget: Option<BudgetProbe>,
        query: Option<String>,
        sink: ProgressSink,
    ) -> Self {
        let shutdown = Arc::new(Shutdown { stop: Mutex::new(false), cv: Condvar::new() });
        let sd = Arc::clone(&shutdown);
        let interval = interval.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("hsa-progress".to_string())
            .spawn(move || sample_loop(&gauge, interval, budget, query.as_deref(), sink, &sd))
            .ok();
        Self { shutdown, handle }
    }

    /// Signal the thread and wait for it to exit. Also runs on drop.
    pub fn stop(&mut self) {
        if let Ok(mut stop) = self.shutdown.stop.lock() {
            *stop = true;
        }
        self.shutdown.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressSampler {
    fn drop(&mut self) {
        self.stop();
    }
}

fn sample_loop(
    gauge: &ProgressGauge,
    interval: Duration,
    budget: Option<BudgetProbe>,
    query: Option<&str>,
    sink: ProgressSink,
    shutdown: &Shutdown,
) {
    let t0 = Instant::now();
    let mut prev_rows = 0u64;
    let mut prev_t = t0;
    loop {
        {
            let Ok(guard) = shutdown.stop.lock() else { return };
            let Ok((guard, _timed_out)) = shutdown.cv.wait_timeout_while(guard, interval, |s| !*s)
            else {
                return;
            };
            if *guard {
                return;
            }
        }
        let now = Instant::now();
        let rows = gauge.total_rows();
        let dt = now.duration_since(prev_t).as_secs_f64().max(1e-9);
        let rate = (rows.saturating_sub(prev_rows)) as f64 / dt;
        prev_rows = rows;
        prev_t = now;
        sink(&heartbeat(
            t0.elapsed(),
            rows,
            rate,
            &gauge.worker_states(),
            budget.as_deref(),
            query,
        ));
    }
}

fn heartbeat(
    elapsed: Duration,
    rows: u64,
    rate: f64,
    states: &[Option<(u32, Phase)>],
    budget: Option<&(dyn Fn() -> Option<(u64, u64)> + Send)>,
    query: Option<&str>,
) -> String {
    use std::fmt::Write as _;
    let mut line = match query {
        Some(q) => format!("[progress q{q}]"),
        None => "[progress]".to_string(),
    };
    let _ = write!(
        line,
        " {:6.1}s  {} rows  {}/s",
        elapsed.as_secs_f64(),
        fmt_count(rows),
        fmt_count(rate as u64)
    );
    // Summarize active workers as "phase@level ×count" groups.
    let mut groups: Vec<((u32, Phase), usize)> = Vec::new();
    for s in states.iter().flatten() {
        match groups.iter_mut().find(|(k, _)| k == s) {
            Some((_, n)) => *n += 1,
            None => groups.push((*s, 1)),
        }
    }
    if groups.is_empty() {
        line.push_str("  idle");
    } else {
        line.push_str("  ");
        for (i, ((level, phase), n)) in groups.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            let _ = write!(line, "{}@L{level}", phase.label());
            if *n > 1 {
                let _ = write!(line, "×{n}");
            }
        }
    }
    if let Some((outstanding, limit)) = budget.and_then(|probe| probe()) {
        let _ = write!(
            line,
            "  budget {:.1}/{:.1} MiB",
            outstanding as f64 / (1u64 << 20) as f64,
            limit as f64 / (1u64 << 20) as f64
        );
    }
    line
}

fn fmt_count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_gauge_is_inert() {
        let g = ProgressGauge::disabled();
        g.set_state(0, 1, Phase::Seal);
        g.add_rows(0, 100);
        assert!(!g.is_enabled());
        assert_eq!(g.total_rows(), 0);
        assert!(g.worker_states().is_empty());
    }

    #[test]
    fn gauge_tracks_rows_and_states_across_threads() {
        let g = ProgressGauge::enabled(3);
        std::thread::scope(|s| {
            for w in 0..3usize {
                let g = g.clone();
                s.spawn(move || {
                    g.set_state(w, w as u32, Phase::HashInsert);
                    for _ in 0..100 {
                        g.add_rows(w, 10);
                    }
                });
            }
        });
        assert_eq!(g.total_rows(), 3000);
        let states = g.worker_states();
        assert_eq!(states.len(), 3);
        for (w, s) in states.iter().enumerate() {
            assert_eq!(*s, Some((w as u32, Phase::HashInsert)));
        }
    }

    #[test]
    fn state_roundtrips_every_phase_and_level_zero() {
        let g = ProgressGauge::enabled(1);
        for &p in Phase::ALL {
            g.set_state(0, 0, p);
            assert_eq!(g.worker_states()[0], Some((0, p)));
        }
    }

    #[test]
    fn sampler_emits_lines_and_joins_on_stop() {
        let g = ProgressGauge::enabled(2);
        g.add_rows(0, 1234);
        g.set_state(0, 0, Phase::HashInsert);
        g.set_state(1, 0, Phase::HashInsert);
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let mut sampler = ProgressSampler::start(
            g.clone(),
            Duration::from_millis(5),
            Some(Box::new(|| Some((1 << 20, 4 << 20)))),
            Some("7".to_string()),
            Box::new(move |line| {
                if let Ok(mut v) = sink_lines.lock() {
                    v.push(line.to_string());
                }
            }),
        );
        // Wait for at least one tick.
        for _ in 0..200 {
            if !lines.lock().unwrap().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        let lines = lines.lock().unwrap();
        assert!(!lines.is_empty(), "sampler never ticked");
        let line = &lines[0];
        assert!(line.starts_with("[progress q7]"), "line: {line}");
        assert!(line.contains("rows"), "line: {line}");
        assert!(line.contains("hash_insert@L0×2"), "line: {line}");
        assert!(line.contains("budget 1.0/4.0 MiB"), "line: {line}");
    }

    #[test]
    fn sampler_shuts_down_on_drop_during_panic() {
        let g = ProgressGauge::enabled(1);
        let ticks = Arc::new(AtomicU64::new(0));
        let sink_ticks = Arc::clone(&ticks);
        let result = std::panic::catch_unwind(move || {
            let _sampler = ProgressSampler::start(
                g,
                Duration::from_millis(2),
                None,
                None,
                Box::new(move |_| {
                    sink_ticks.fetch_add(1, Ordering::Relaxed);
                }),
            );
            std::thread::sleep(Duration::from_millis(10));
            panic!("boom");
        });
        assert!(result.is_err());
        // The unwinding drop joined the thread; no further ticks arrive.
        let after = ticks.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ticks.load(Ordering::Relaxed), after);
    }

    #[test]
    fn heartbeat_formats_idle_and_active() {
        let idle = heartbeat(Duration::from_secs(1), 0, 0.0, &[None, None], None, None);
        assert!(idle.contains("idle"), "line: {idle}");
        let active = heartbeat(
            Duration::from_secs(2),
            20_000_000,
            5e6,
            &[Some((1, Phase::Partition)), None],
            None,
            None,
        );
        assert!(active.contains("20.0M rows"), "line: {active}");
        assert!(active.contains("5.0M/s"), "line: {active}");
        assert!(active.contains("partition@L1"), "line: {active}");
    }

    #[test]
    fn heartbeat_carries_the_query_tag() {
        let line = heartbeat(Duration::from_secs(1), 10, 10.0, &[None], None, Some("42"));
        assert!(line.starts_with("[progress q42]"), "line: {line}");
        let untagged = heartbeat(Duration::from_secs(1), 10, 10.0, &[None], None, None);
        assert!(untagged.starts_with("[progress]"), "line: {untagged}");
    }
}
