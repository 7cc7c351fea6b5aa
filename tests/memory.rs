//! Large-K queries back to back in one process, the memory slice of the
//! scenario checker. When a query is over, the process-wide chunk depot
//! keeps no more idle bytes than the query held lent at its high water: a
//! repeat finds what it needs, and a small query after a large one gives
//! the rest back.
//!
//! What the depot keeps is only the last query's if no other query ran
//! beside it, so this target is a process of its own with one test: a
//! second test here would run on another thread and share the depot.

// This target uses part of the harness; `tests/scenarios.rs` uses all of
// it and keeps the dead-code warnings.
#[allow(dead_code)]
#[path = "scenarios/harness.rs"]
mod harness;

use harness::{check, four, made_runs, Cuts, Door, Scenario};
use hashing_is_sorting::obs::Counter;

/// K = N/2 at one and two workers, through both doors, with a small
/// query between the large ones.
fn back_to_back() -> Vec<Scenario> {
    let large = Scenario { n: 200_000, k: 100_000, ..Scenario::default() };
    let stream = Scenario { door: Door::Stream, cuts: Cuts::Every(50_000), ..large.clone() };
    let small = Scenario { n: 2_000, k: 100, seed: 2, ..Scenario::default() };
    vec![
        large.clone(),
        large.clone(),
        Scenario { threads: 1, ..stream.clone() },
        small,
        stream,
        Scenario { specs: four(), ..large },
    ]
}

#[test]
fn the_depot_keeps_at_most_the_last_querys_high_water() {
    for s in back_to_back() {
        let ran = check(&s).result.expect("a quiet scenario succeeds");
        let report = ran.report.expect("the one-shot and stream doors are observed");
        let merged = report.metrics.expect("observed").merged();
        let high_water = merged.counter(Counter::DepotLentHighWater);
        // Only runs take chunks: the small query stops at level 0, its
        // result written straight into the caller's vectors, and lends none.
        assert_eq!(high_water > 0, made_runs(&report.stats), "{s:?}");
        assert!(
            ran.idle_after <= high_water,
            "{} idle bytes after a query that lent {high_water} at most: {s:?}",
            ran.idle_after
        );
    }
}
