//! Live progress: a background sampler thread that reads the query's
//! [`Recorder`] every interval and turns it into heartbeat lines.
//!
//! The recorder's always-on cells may be read while workers record, so
//! the heartbeat needs no cells of its own: rows are the rows the HASHING
//! and PARTITIONING routines consumed so far (`hash_rows` + `part_rows`
//! over every level), and each worker's position is the `(level, phase)`
//! it last entered. The [`ProgressSampler`] emits one line per tick
//! through the caller's sink; dropping the sampler — including during a
//! panic unwind — signals and joins the thread.

use crate::profile::Phase;
use crate::recorder::{LevelCounter, Recorder};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// Start a sampler over `recorder`: one heartbeat line per `interval`
    /// through `sink`. With a `query` tag every line leads with
    /// `[progress q<tag>]`, so queries running concurrently on one shared
    /// runtime stay attributable; the tag is a plain string (the engine
    /// passes its query id) so this crate stays scheduler-agnostic.
    pub fn start(
        recorder: Recorder,
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
            .spawn(move || sample_loop(&recorder, interval, budget, query.as_deref(), sink, &sd))
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
    recorder: &Recorder,
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
        let snap = recorder.snapshot();
        let merged = snap.merged();
        let rows =
            merged.level_total(LevelCounter::HashRows) + merged.level_total(LevelCounter::PartRows);
        let dt = now.duration_since(prev_t).as_secs_f64().max(1e-9);
        let rate = (rows.saturating_sub(prev_rows)) as f64 / dt;
        prev_rows = rows;
        prev_t = now;
        sink(&heartbeat(
            t0.elapsed(),
            rows,
            rate,
            &snap.workers.iter().map(|w| w.position()).collect::<Vec<_>>(),
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
    use crate::recorder::Counter;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The first line a sampler over `recorder` emits, through a
    /// capturing sink; the sampler is stopped and joined before returning.
    fn first_line(recorder: &Recorder, budget: Option<BudgetProbe>, query: Option<&str>) -> String {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let mut sampler = ProgressSampler::start(
            recorder.clone(),
            Duration::from_millis(5),
            budget,
            query.map(str::to_string),
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
        lines[0].clone()
    }

    #[test]
    fn sampler_emits_lines_and_joins_on_stop() {
        let r = Recorder::counters(2);
        r.add_level(0, LevelCounter::HashRows, 0, 1234);
        r.set_position(0, 0, Phase::HashInsert);
        r.set_position(1, 0, Phase::HashInsert);
        let line = first_line(&r, Some(Box::new(|| Some((1 << 20, 4 << 20)))), Some("7"));
        assert!(line.starts_with("[progress q7]"), "line: {line}");
        assert!(line.contains("rows"), "line: {line}");
        assert!(line.contains("hash_insert@L0×2"), "line: {line}");
        assert!(line.contains("budget 1.0/4.0 MiB"), "line: {line}");
    }

    /// Rows are what HASHING and PARTITIONING consumed, summed over
    /// workers and levels — no other cell, however large, counts — and
    /// each worker shows the position it stored last.
    #[test]
    fn heartbeat_rows_are_hashed_plus_partitioned_rows() {
        let r = Recorder::counters(2);
        r.add_level(0, LevelCounter::HashRows, 0, 1000);
        r.add_level(0, LevelCounter::PartRows, 0, 2000);
        r.add_level(1, LevelCounter::HashRows, 1, 500);
        r.add_level(1, LevelCounter::PartRows, 2, 434);
        r.add_level(0, LevelCounter::TaskNanos, 0, 1 << 40);
        r.add(1, Counter::TablesSealed, 77);
        r.set_position(0, 0, Phase::Partition);
        r.set_position(0, 1, Phase::Seal);
        r.set_position(1, 1, Phase::HashInsert);
        let line = first_line(&r, None, None);
        assert!(line.contains("  3934 rows  "), "line: {line}");
        assert!(line.contains("seal@L1 hash_insert@L1"), "line: {line}");
        assert!(!line.contains("partition"), "line: {line}");
    }

    #[test]
    fn sampler_shuts_down_on_drop_during_panic() {
        let r = Recorder::counters(1);
        let ticks = Arc::new(AtomicU64::new(0));
        let sink_ticks = Arc::clone(&ticks);
        let result = std::panic::catch_unwind(move || {
            let _sampler = ProgressSampler::start(
                r,
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
