//! Concurrency stress for the sharded recorder and tracer: one thread per
//! worker shard hammering its own cells (the sharding contract), with the
//! merged snapshot checked for exact totals — on the always-on counter
//! cells every query records into, and on the deep part. Runs under plain
//! `cargo test` and in the ThreadSanitizer CI job — if the `UnsafeCell`
//! sharding or the cache-padding layout were wrong, concurrent writers
//! would corrupt adjacent shards and the balances below would drift.

use hsa_obs::{Counter, Hist, LevelCounter, Recorder, Tracer};

const WORKERS: usize = 8;
#[cfg(not(miri))]
const OPS: u64 = 20_000;
/// Miri interprets every access; a few hundred ops per shard still proves
/// the sharding contract without minutes of interpretation.
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

#[test]
fn tracer_shards_account_for_every_event() {
    // Capacity below the emission count so the drop path is exercised too.
    let capacity = (OPS / 4) as usize;
    let tracer = Tracer::enabled(WORKERS, capacity);
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let tracer = &tracer;
            s.spawn(move || {
                for i in 0..OPS {
                    let start = tracer.now();
                    if i % 2 == 0 {
                        tracer.span_args(w, "stress", start, &[("i", i)]);
                    } else {
                        tracer.instant(w, "tick", &[("i", i)]);
                    }
                }
            });
        }
    });
    // Recorded + dropped must equal emitted, exactly.
    let total = tracer.event_count() as u64 + tracer.dropped_count();
    assert_eq!(total, WORKERS as u64 * OPS);
    assert_eq!(tracer.event_count(), WORKERS * capacity);
    // The JSON renderer walks every shard after quiescence.
    let json = tracer.to_chrome_json();
    assert!(json.contains("\"traceEvents\""));
}

#[test]
fn counter_cells_are_exact_without_the_deep_part() {
    // The path every query takes, observed or not: plain adds into the
    // worker's own counter cells, the deep calls a null check beside them.
    let rec = Recorder::counters(WORKERS);
    let tracer = Tracer::disabled();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let (rec, tracer) = (&rec, &tracer);
            s.spawn(move || {
                for i in 0..OPS {
                    rec.add(w, Counter::TablesSealed, 1);
                    rec.add_level(w, LevelCounter::TaskNanos, w as u32, i);
                    rec.observe(w, Hist::ProbeLen, i);
                    rec.record_alpha(w, 1.0);
                    tracer.instant(w, "noop", &[]);
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
    assert_eq!(tracer.event_count(), 0);
}
