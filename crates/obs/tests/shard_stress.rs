//! Concurrency stress for the sharded recorder and its timeline: threads
//! hammering per-worker cells — one thread per shard as the operator
//! records, two threads on one shard, and a reader taking snapshots and
//! rendering the trace while the writers run — with the merged snapshot
//! checked for exact totals, on the always-on counter cells every query
//! records into, on the deep part and on the timeline's marks. Runs under
//! plain `cargo test`, Miri and the ThreadSanitizer CI job: a lost update,
//! a write smeared into a neighbouring shard or a torn read would make the
//! balances below drift, and a data race in the cells would be reported
//! by the sanitizer.

use hsa_obs::json::{parse, JsonValue};
use hsa_obs::{Counter, Hist, LevelCounter, Phase, PhaseCell, Recorder, WorkerSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const WORKERS: usize = 8;
#[cfg(not(miri))]
const OPS: u64 = 20_000;
/// Miri interprets every access; a few hundred ops per shard still
/// exercises every interleaving shape without minutes of interpretation.
#[cfg(miri)]
const OPS: u64 = 256;

#[test]
fn per_worker_recorder_shards_do_not_interfere() {
    let rec = Recorder::deep(WORKERS);
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let rec = &rec;
            s.spawn(move || {
                for i in 0..OPS {
                    rec.add_level(w, LevelCounter::HashRows, (i % 4) as u32, 1);
                    rec.add(w, Counter::ProbeSteps, i % 3);
                    rec.observe(w, Hist::ProbeLen, i % 17);
                    if i % 64 == 0 {
                        rec.record_alpha(w, (w as f64) / (WORKERS as f64));
                    }
                }
            });
        }
    });
    let snap = rec.snapshot();
    let merged = snap.merged();
    // Exact balance: no lost or smeared updates across shards.
    assert_eq!(merged.level_total(LevelCounter::HashRows), WORKERS as u64 * OPS);
    assert_eq!(merged.level_counter(LevelCounter::HashRows)[4..], [0; 5]);
    let expected_steps: u64 = (0..OPS).map(|i| i % 3).sum();
    assert_eq!(merged.counter(Counter::ProbeSteps), WORKERS as u64 * expected_steps);
    assert_eq!(merged.hist(Hist::ProbeLen).count(), WORKERS as u64 * OPS);
    assert_eq!(merged.alpha_count(), WORKERS as u64 * OPS.div_ceil(64));
    // Untouched metrics stay zero — a smeared write would land somewhere.
    assert_eq!(merged.level_total(LevelCounter::SpilledRuns), 0);
    assert_eq!(merged.counter(Counter::SpilledBytes), 0);
    assert_eq!(merged.hist(Hist::SpillNanos).count(), 0);
}

/// Each worker's lane of a rendered trace: (marks kept, marks dropped).
type Lanes = Vec<(u64, u64)>;

fn lanes(rec: &Recorder) -> Lanes {
    let trace = parse(&rec.trace_json().expect("a timeline")).expect("the trace parses");
    let field = |k| trace.get(k).unwrap_or_else(|| panic!("no {k}"));
    let dropped: Vec<u64> = (field("droppedEventsByWorker").as_array().expect("a list").iter())
        .map(|d| d.as_u64().expect("a count"))
        .collect();
    assert_eq!(field("droppedEvents").as_u64(), Some(dropped.iter().sum()));
    let mut kept = vec![0; dropped.len()];
    for e in field("traceEvents").as_array().expect("a list") {
        if e.get("ph").and_then(JsonValue::as_str) != Some("M") {
            kept[e.get("tid").and_then(JsonValue::as_u64).expect("a lane") as usize] += 1;
        }
    }
    kept.into_iter().zip(dropped).collect()
}

#[test]
fn timeline_shards_account_for_every_mark() {
    // Capacity below the emission count so the drop path is exercised too.
    let capacity = OPS / 4;
    let epoch = Instant::now();
    let rec = Recorder::traced(WORKERS, false, epoch, capacity as usize);
    let cell = PhaseCell { calls: 1, ..PhaseCell::default() };
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let rec = &rec;
            s.spawn(move || {
                for i in 0..OPS {
                    if i % 2 == 0 {
                        rec.phase(w, (i % 3) as u32, Phase::Seal, cell, epoch, i);
                    } else {
                        rec.instant(w, "tick", &[("i", i)]);
                    }
                }
            });
        }
    });
    // Kept + dropped must equal recorded, exactly, per worker and in
    // total; the buffer holds its capacity and no more.
    let lanes = lanes(&rec);
    assert_eq!(lanes.len(), WORKERS);
    for &(kept, dropped) in &lanes {
        assert_eq!((kept, kept + dropped), (capacity, OPS));
    }
    let total: u64 = lanes.iter().map(|&(kept, dropped)| kept + dropped).sum();
    assert_eq!(total, WORKERS as u64 * OPS);
    // The timeline fills no deep cell.
    assert!(rec.snapshot().merged().phase_cell(0, Phase::Seal).is_empty());
}

#[test]
fn counter_cells_are_exact_without_the_deep_part() {
    // The path every query takes, observed or not: relaxed adds into the
    // worker's own counter cells, the deep calls a null check beside them.
    let rec = Recorder::counters(WORKERS);
    let epoch = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let rec = &rec;
            s.spawn(move || {
                for i in 0..OPS {
                    rec.add(w, Counter::TablesSealed, 1);
                    rec.add_level(w, LevelCounter::TaskNanos, w as u32, i);
                    rec.observe(w, Hist::ProbeLen, i);
                    rec.record_alpha(w, 1.0);
                    rec.phase(w, 0, Phase::Seal, PhaseCell::default(), epoch, i);
                    rec.instant(w, "noop", &[]);
                }
            });
        }
    });
    let snap = rec.snapshot();
    let nanos: u64 = (0..OPS).sum();
    for (w, shard) in snap.workers.iter().enumerate() {
        assert_eq!(shard.counter(Counter::TablesSealed), OPS);
        assert_eq!(shard.level_counter(LevelCounter::TaskNanos)[w], nanos);
        assert_eq!(shard.level_total(LevelCounter::TaskNanos), nanos, "one level per worker");
    }
    let merged = snap.merged();
    assert_eq!(merged.counter(Counter::TablesSealed), WORKERS as u64 * OPS);
    assert!(merged.hist(Hist::ProbeLen).is_empty());
    assert_eq!(merged.alpha_count(), 0);
    assert!(merged.phase_cell(0, Phase::Seal).is_empty());
    // A disabled timeline records nothing: there is no trace to render,
    // with or without the deep part.
    assert!(rec.trace_json().is_none());
    let deep = Recorder::deep(1);
    deep.instant(0, "noop", &[]);
    assert!(deep.trace_json().is_none());
}

/// One round of recording as worker `w`: every kind of cell, deep
/// included, and two timeline marks (a phase call's span, an instant).
fn record_round(rec: &Recorder, w: usize, i: u64) {
    rec.add(w, Counter::TablesSealed, 1);
    rec.add_level(w, LevelCounter::HashRows, (i % 3) as u32, 2);
    rec.set_position(w, (i % 3) as u32, Phase::HashInsert);
    rec.observe(w, Hist::ProbeLen, i % 11);
    let cell = PhaseCell { nanos: 3, calls: 1, ..PhaseCell::default() };
    rec.phase(w, 0, Phase::Seal, cell, Instant::now(), 5);
    rec.record_alpha(w, 2.0);
    rec.instant(w, "tick", &[("i", i)]);
}

#[test]
fn two_threads_on_one_worker_index_stay_exact() {
    // The operator gives each shard one writer at a time; nothing in the
    // recorder relies on it. Every cell of worker 1 takes both threads'
    // updates, worker 0 none.
    let rec = Recorder::traced(2, true, Instant::now(), OPS as usize);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let rec = &rec;
            s.spawn(move || (0..OPS).for_each(|i| record_round(rec, 1, i)));
        }
    });
    let snap = rec.snapshot();
    let shard = &snap.workers[1];
    assert_eq!(shard.counter(Counter::TablesSealed), 2 * OPS);
    assert_eq!(shard.level_total(LevelCounter::HashRows), 4 * OPS);
    assert_eq!(shard.hist(Hist::ProbeLen).count(), 2 * OPS);
    assert_eq!(shard.phase_cell(0, Phase::Seal).calls, 2 * OPS);
    assert_eq!(shard.phase_cell(0, Phase::Seal).nanos, 6 * OPS);
    assert_eq!(shard.alpha_count(), 2 * OPS);
    assert!((shard.alpha_sum() - 4.0 * OPS as f64).abs() < 1e-6);
    assert_eq!(cells(&snap.workers[0]).iter().sum::<u64>(), 0, "worker 0 untouched");
    // Two marks a round, two threads: kept + dropped = 4 × OPS, of which
    // the buffer keeps its capacity, OPS.
    assert_eq!(lanes(&rec), [(0, 0), (OPS, 3 * OPS)]);
}

/// Every monotone cell of one worker snapshot, flattened.
fn cells(w: &WorkerSnapshot) -> Vec<u64> {
    let mut out: Vec<u64> = Counter::ALL.iter().map(|&c| w.counter(c)).collect();
    for &c in LevelCounter::ALL {
        out.extend(w.level_counter(c));
    }
    out.extend(Hist::ALL.iter().map(|&h| w.hist(h).count()));
    out.extend((0..hsa_obs::PROFILE_LEVELS).flat_map(|l| {
        Phase::ALL.iter().flat_map(move |&p| {
            let c = w.phase_cell(l, p);
            [c.nanos, c.calls]
        })
    }));
    out.push(w.alpha_count());
    out
}

#[test]
fn snapshots_taken_while_writers_run_never_exceed_the_final_one() {
    // A small timeline keeps each mid-run rendering cheap.
    let capacity = 64;
    let rec = Recorder::traced(WORKERS, true, Instant::now(), capacity);
    let finished = AtomicUsize::new(0);
    let mid: Vec<(Vec<Vec<u64>>, Lanes)> = std::thread::scope(|s| {
        for w in 0..WORKERS {
            let (rec, finished) = (&rec, &finished);
            s.spawn(move || {
                (0..OPS).for_each(|i| record_round(rec, w, i));
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }
        let mut readings = Vec::new();
        while finished.load(Ordering::SeqCst) < WORKERS && readings.len() < 64 {
            let snap = rec.snapshot();
            readings.push((snap.workers.iter().map(cells).collect(), lanes(&rec)));
        }
        readings
    });
    let last = rec.snapshot();
    let final_cells: Vec<Vec<u64>> = last.workers.iter().map(cells).collect();
    // Each cell is exact on its own: a mid-query reading may lag the
    // final one, never lead it, and later readings never go back.
    let final_lanes = lanes(&rec);
    let mut prev = vec![vec![0; final_cells[0].len()]; WORKERS];
    let mut prev_lanes = vec![(0, 0); WORKERS];
    for (reading, lanes) in &mid {
        for ((now, before), fin) in reading.iter().zip(&prev).zip(&final_cells) {
            assert!(now.iter().zip(fin).all(|(a, b)| a <= b), "{now:?} exceeds {fin:?}");
            assert!(now.iter().zip(before).all(|(a, b)| a >= b), "{now:?} went back");
        }
        for ((now, before), fin) in lanes.iter().zip(&prev_lanes).zip(&final_lanes) {
            assert!(now.0 <= fin.0 && now.1 <= fin.1, "{now:?} exceeds {fin:?}");
            assert!(now.0 >= before.0 && now.1 >= before.1, "{now:?} went back");
        }
        prev = reading.clone();
        prev_lanes = lanes.clone();
    }
    let merged = last.merged();
    assert_eq!(merged.counter(Counter::TablesSealed), WORKERS as u64 * OPS);
    assert_eq!(merged.level_total(LevelCounter::HashRows), 2 * WORKERS as u64 * OPS);
    assert_eq!(merged.hist(Hist::ProbeLen).count(), WORKERS as u64 * OPS);
    assert_eq!(merged.phase_cell(0, Phase::Seal).calls, WORKERS as u64 * OPS);
    assert_eq!(merged.alpha_count(), WORKERS as u64 * OPS);
    // Two marks a round: each lane keeps its capacity, drops the rest.
    assert_eq!(final_lanes, vec![(capacity as u64, 2 * OPS - capacity as u64); WORKERS]);
    for w in &last.workers {
        assert!(w.position().is_some_and(|(level, p)| level < 3 && p == Phase::HashInsert));
    }
}
