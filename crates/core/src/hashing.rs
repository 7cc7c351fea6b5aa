//! The `HASHING` routine (Algorithm 1, lines 5–8) in column-wise form.
//!
//! One run is processed in cache-sized blocks. For each block the key pass
//! inserts keys into the table and records the slot of every row in a
//! mapping vector (§3.3, Figure 2); then each state column is folded into
//! the table's corresponding slot-indexed array in its own tight loop. The
//! mapping never leaves the cache: it covers one block only.
//!
//! When the table reports `Full`, the pending part of the block is applied,
//! the table is sealed into per-digit runs (early-aggregated intermediate
//! results), and the strategy decides whether to continue hashing into the
//! now-empty table or to hand the rest of the run to `PARTITIONING`.

use crate::adaptive::{ModeState, SealDecision};
use crate::exec::Gate;
use crate::obs::Obs;
use crate::partitioning::RunWriter;
use crate::sink::RunSink;
use crate::view::{RunView, StateCols};
use hsa_agg::shims::KernelKind;
use hsa_columnar::{ChunkedVec, Run, RunHandle};
use hsa_fault::{AggError, Reservation};
use hsa_hash::Murmur2;
use hsa_hashtbl::{AggTable, BatchInsert};
use hsa_obs::{Counter, Hist, LevelCounter, Phase};

/// Outcome of hashing (part of) a run.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum HashOutcome {
    /// All rows from the starting offset were absorbed.
    Done,
    /// The strategy switched to partitioning; rows `next_row..` of the run
    /// are unprocessed.
    Switched {
        /// First unprocessed row.
        next_row: usize,
    },
}

/// Upper estimate of the bytes `seal_into` materializes: the emitted runs'
/// key + state chunks plus per-digit chunk slack (each non-empty digit gets
/// its own `ChunkedVec`s whose capacities may exceed their lengths).
fn seal_bytes_upper(groups: u64, n_cols: usize) -> u64 {
    let per_value = 8 * (1 + n_cols as u64);
    let digits = groups.min(256);
    digits * 64 * per_value + 2 * groups * per_value
}

/// Seal `table` into `sink` as early-aggregated runs at `table.level() + 1`.
///
/// Reserves an upper estimate of the emitted runs' memory from the budget
/// first; each run carries an exact-sized slice of that reservation into
/// the sink and the transient remainder is released on return. When the
/// reservation is denied degradably and a spill directory is configured,
/// the denial is downgraded: the same worker's partition `writer`, whose
/// runs go to the same buckets and are far longer than a sealed digit's,
/// spills its largest partitions until the estimate fits; if it has none
/// to spill or the retry is denied too, the sealed runs are flushed to
/// the spill store instead and travel as disk-backed handles with empty
/// reservations. Hard denials (injected faults, zero-byte budgets) and
/// runs without a spill directory still surface `BudgetExceeded`.
pub(crate) fn seal_into(
    table: &mut AggTable,
    writer: Option<&mut RunWriter>,
    sink: &mut impl RunSink,
    gate: Gate<'_>,
    obs: &Obs,
) -> Result<(), AggError> {
    let pt = obs.phase_start(table.level(), Phase::Seal);
    let groups = table.len() as u64;
    let estimate = seal_bytes_upper(groups, table.n_cols());
    let mut granted = gate.reserve(estimate, obs);
    if let (Err(e), Some(w)) = (&granted, writer) {
        if let AggError::BudgetExceeded { requested, limit, reserved } = *e {
            if gate.can_spill(e) && w.held() > 0 {
                let need = (reserved + requested).saturating_sub(limit);
                w.spill_victims(w.held().saturating_sub(need), sink, gate, obs)?;
                granted = gate.reserve(estimate, obs);
            }
        }
    }
    let mut res = match granted {
        Ok(res) => Some(res),
        Err(e) if gate.can_spill(&e) => {
            obs.event(
                Counter::BudgetDowngrades,
                "seal_spill",
                &[("level", table.level() as u64), ("groups", groups)],
            );
            None
        }
        Err(e) => return Err(e),
    };
    obs.observe(Hist::SealFillPct, groups * 100 / table.total_slots().max(1) as u64);
    let next_level = table.level() + 1;
    // In the spill-downgrade case the sealed sub-runs are collected and
    // flushed as ONE batch into a shared spill file: the seal is one
    // logical flush, and per-digit files would pay an inode creation
    // each — the dominant cost of small spills on some filesystems. The
    // batch is transient double-residency of the table's own content
    // (the table is cleared by the seal), bounded by the table the
    // budget already admitted.
    let mut spill_digits: Vec<usize> = Vec::new();
    let mut spill_runs: Vec<Run> = Vec::new();
    let lent = |values: &[u64]| {
        let mut col = ChunkedVec::new_in(gate.depot);
        col.extend_from_slice(values);
        col
    };
    table.seal(|digit, keys, cols| {
        let run = Run {
            keys: lent(keys),
            cols: cols.iter().map(|c| lent(c)).collect(),
            aggregated: true,
            source_rows: keys.len() as u64,
            level: next_level,
        };
        match &mut res {
            Some(res) => {
                let run_res = res.take(run.mem_bytes());
                sink.push_run(digit, RunHandle::Mem(run), run_res);
            }
            None => {
                spill_digits.push(digit);
                spill_runs.push(run);
            }
        }
    });
    if !spill_runs.is_empty() {
        let handles = gate.spill_batch(spill_runs, obs)?;
        for (digit, handle) in spill_digits.into_iter().zip(handles) {
            sink.push_run(digit, handle, Reservation::empty());
        }
    }
    obs.event(
        Counter::TablesSealed,
        "seal",
        &[("level", next_level as u64 - 1), ("groups", groups)],
    );
    obs.flush_table_metrics(table);
    // Spill time inside the seal was attributed to its own phase by the
    // nested-time accounting; this cell holds the pure seal cost.
    obs.phase_end(pt, groups, groups, 0);
    Ok(())
}

/// Hash rows `[from_row..]` of `view` into `table`.
///
/// `epoch_rows` counts rows absorbed since the current table was last
/// empty — it persists across runs of the same bucket (and across level-0
/// morsels of the same worker) because that is the `n_in` of the §5
/// reduction factor.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hash_run(
    view: &RunView<'_>,
    from_row: usize,
    table: &mut AggTable,
    states: &StateCols,
    mode: &mut ModeState,
    epoch_rows: &mut u64,
    mapping: &mut Vec<u32>,
    writer: &mut Option<RunWriter>,
    sink: &mut impl RunSink,
    gate: Gate<'_>,
    obs: &Obs,
) -> Result<HashOutcome, AggError> {
    let hasher = Murmur2::default();
    let aggregated = view.aggregated();
    let n = view.len();
    let level = table.level();
    let mut row = from_row;

    // One phase span covers the whole call, not each aligned block: deep
    // levels hash thousands of tiny blocks, where per-block clock reads
    // are measurable. Seals (and their spills) triggered mid-loop open
    // nested spans; the nested-time accounting keeps this span's
    // exclusive time pure hash-insert.
    let pt = obs.phase_start(level, Phase::HashInsert);
    let mut span_in = 0u64;
    let mut span_out = 0u64;

    let outcome = loop {
        if row == n {
            break HashOutcome::Done;
        }
        let block_len = view.aligned_block_len(row);
        debug_assert!(block_len > 0, "empty aligned block at row {row}/{n}");
        let keys = &view.key_tail(row)[..block_len];
        let groups_before = table.len() as u64;

        mapping.clear();
        // Key pass; DISTINCT needs no mapping.
        let BatchInsert { consumed, full: table_full } = if states.ops.is_empty() {
            table.insert_batch_distinct(hasher, keys)
        } else {
            table.insert_batch(hasher, keys, KernelKind, mapping)
        };

        // Fold the block's values into the state columns, one column at a
        // time (tight loops; the mapping is cache resident).
        for (i, &op) in states.ops.iter().enumerate() {
            let vals = &view.state_tail(states, i, row)[..consumed];
            let col = table.col_mut(i);
            hsa_agg::fold_column(op, aggregated, col, mapping, vals);
        }

        *epoch_rows += consumed as u64;
        row += consumed;
        // rows_out accumulates the *new* groups: summed per level this
        // yields the level's observed reduction factor α = rows_in/rows_out.
        span_in += consumed as u64;
        span_out += table.len() as u64 - groups_before;

        if table_full {
            // The reduction factor the strategy judges (§5): rows absorbed
            // this epoch per group produced.
            let alpha = *epoch_rows as f64 / table.len().max(1) as f64;
            obs.alpha(alpha);
            let decision = mode.on_seal(*epoch_rows, table.len(), table.total_slots());
            seal_into(table, writer.as_mut(), sink, gate, obs)?;
            *epoch_rows = 0;
            if decision == SealDecision::SwitchToPartitioning {
                obs.event(
                    Counter::SwitchesToPartitioning,
                    "switch_to_partitioning",
                    &[("level", level as u64), ("alpha_x100", (alpha * 100.0) as u64)],
                );
                break HashOutcome::Switched { next_row: row };
            }
            // Retry the row that hit the full table with the fresh one.
        }
    };
    obs.count_at(LevelCounter::HashRows, level, span_in);
    obs.phase_end(pt, span_in, span_out, 0);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::Strategy;
    use crate::driver::spill_store;
    use crate::obs::testing::TestObs;
    use crate::sink::{LocalBuckets, Pending};
    use hsa_agg::{PhysicalCol, Plan, StateOp};
    use hsa_columnar::{DepotAccount, RunStore};
    use hsa_fault::{FaultInjector, MemoryBudget};
    use hsa_hash::Hasher64;
    use hsa_hashtbl::{Insert, TableConfig};
    use std::collections::BTreeMap;

    /// An unrestricted gate for driving the routine directly.
    macro_rules! open_gate {
        () => {
            Gate {
                budget: &MemoryBudget::unlimited(),
                faults: &FaultInjector::none(),
                store: &RunStore::in_memory(),
                depot: &DepotAccount::default(),
                pending: &Pending::new(),
            }
        };
    }

    /// The layout of a query whose every non-COUNT state reads input 0.
    fn states_of(ops: &[StateOp]) -> StateCols {
        let col = |&op| PhysicalCol { op, input: (op != StateOp::Count).then_some(0) };
        StateCols::of(&Plan { cols: ops.iter().map(col).collect(), finalizers: Vec::new() })
    }

    fn table(slots: usize, ops: &[StateOp]) -> AggTable {
        let ids: Vec<u64> = ops.iter().map(|&o| hsa_hashtbl::identity_of(o)).collect();
        AggTable::new(TableConfig { total_slots: slots, fill_percent: 25 }, 0, &ids)
    }

    fn drive(
        keys: &[u64],
        vals: &[u64],
        ops: &[StateOp],
        slots: usize,
    ) -> (BTreeMap<u64, Vec<u64>>, u64) {
        // Hash everything with HashingOnly, sealing as needed, then merge
        // sealed runs plus the final table via a reference fold.
        let rec = TestObs::new();
        let mut t = table(slots, ops);
        let mut mode = ModeState::new(Strategy::HashingOnly);
        let mut epoch = 0u64;
        let mut mapping = Vec::new();
        let mut sink = LocalBuckets::new();
        // Raw rows: the one input travels once, however many states read it.
        let states = states_of(ops);
        let view = RunView::Borrowed {
            keys,
            cols: vec![vals; states.raw_inputs().len()],
            aggregated: false,
        };
        let out = hash_run(
            &view,
            0,
            &mut t,
            &states,
            &mut mode,
            &mut epoch,
            &mut mapping,
            &mut None,
            &mut sink,
            open_gate!(),
            &rec.obs(),
        )
        .unwrap();
        assert_eq!(out, HashOutcome::Done);
        seal_into(&mut t, None, &mut sink, open_gate!(), &rec.obs()).unwrap();

        // Merge all emitted runs with the super-aggregate.
        let mut merged: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (_, bucket, _res) in sink.into_nonempty() {
            for handle in bucket {
                let run = handle.into_run().unwrap();
                assert!(run.aggregated);
                assert_eq!(run.level, 1);
                run.check_consistent().unwrap();
                let ks = run.keys.to_vec();
                let cols: Vec<Vec<u64>> = run.cols.iter().map(ChunkedVec::to_vec).collect();
                for (j, k) in ks.iter().enumerate() {
                    let e = merged.entry(*k).or_insert_with(|| {
                        ops.iter().map(|&o| hsa_hashtbl::identity_of(o)).collect()
                    });
                    for (i, &op) in ops.iter().enumerate() {
                        e[i] = op.merge(e[i], cols[i][j]);
                    }
                }
            }
        }
        (merged, rec.stats().seals)
    }

    #[test]
    fn single_table_no_seal() {
        let keys: Vec<u64> = (0..100).map(|i| i % 10).collect();
        let vals: Vec<u64> = (0..100).collect();
        let ops = [StateOp::Sum];
        let (merged, seals) = drive(&keys, &vals, &ops, 1 << 12);
        assert_eq!(seals, 1, "only the final explicit seal");
        let expect: BTreeMap<u64, Vec<u64>> =
            (0..10).map(|k| (k, vec![(0..100).filter(|i| i % 10 == k).sum::<u64>()])).collect();
        assert_eq!(merged, expect);
    }

    #[test]
    fn overflow_seals_and_stays_correct() {
        // 2^12 slots at 25% → 1024 groups per table; 5000 distinct keys
        // force multiple seals.
        let keys: Vec<u64> = (0..5000u64).chain(0..5000).collect();
        let vals = vec![1u64; keys.len()];
        let ops = [StateOp::Count, StateOp::Sum];
        let (merged, seals) = drive(&keys, &vals, &ops, 1 << 12);
        assert!(seals > 4, "expected several seals, got {seals}");
        assert_eq!(merged.len(), 5000);
        for (k, sts) in merged {
            assert_eq!(sts, vec![2, 2], "group {k}");
        }
    }

    #[test]
    fn aggregated_input_uses_merge() {
        // Feed partial COUNT states: two runs carrying counts 3 and 4 for
        // the same key must merge to 7.
        let rec = TestObs::new();
        let ops = [StateOp::Count];
        let mut t = table(1 << 12, &ops);
        let mut mode = ModeState::new(Strategy::HashingOnly);
        let mut epoch = 0;
        let mut mapping = Vec::new();
        let mut sink = LocalBuckets::new();
        let mk = |count: u64| {
            let mut keys = ChunkedVec::new();
            keys.push(42u64);
            let mut c = ChunkedVec::new();
            c.push(count);
            RunView::Owned(Run {
                keys,
                cols: vec![c],
                aggregated: true,
                source_rows: count,
                level: 0,
            })
        };
        for v in [mk(3), mk(4)] {
            let out = hash_run(
                &v,
                0,
                &mut t,
                &states_of(&ops),
                &mut mode,
                &mut epoch,
                &mut mapping,
                &mut None,
                &mut sink,
                open_gate!(),
                &rec.obs(),
            )
            .unwrap();
            assert_eq!(out, HashOutcome::Done);
        }
        seal_into(&mut t, None, &mut sink, open_gate!(), &rec.obs()).unwrap();
        let mut total = None;
        for (_, bucket, _res) in sink.into_nonempty() {
            for handle in bucket {
                let run = handle.into_run().unwrap();
                assert_eq!(run.keys.to_vec(), vec![42]);
                total = Some(run.cols[0].iter().next().unwrap());
            }
        }
        assert_eq!(total, Some(7));
    }

    #[test]
    fn switch_decision_stops_mid_run() {
        // Adaptive with a huge α₀ forces a switch at the first seal.
        let rec = TestObs::new();
        let ops: [StateOp; 0] = [];
        let mut t = table(1 << 12, &ops);
        let mut mode = ModeState::new(Strategy::Adaptive(crate::AdaptiveParams {
            alpha0: f64::INFINITY,
            c: 10.0,
        }));
        let mut epoch = 0;
        let mut mapping = Vec::new();
        let mut sink = LocalBuckets::new();
        let keys: Vec<u64> = (0..10_000).collect();
        let view = RunView::Borrowed { keys: &keys, cols: vec![], aggregated: false };
        match hash_run(
            &view,
            0,
            &mut t,
            &states_of(&ops),
            &mut mode,
            &mut epoch,
            &mut mapping,
            &mut None,
            &mut sink,
            open_gate!(),
            &rec.obs(),
        )
        .unwrap()
        {
            HashOutcome::Switched { next_row } => {
                // Exactly the table capacity was absorbed before the seal.
                assert_eq!(next_row, 1024);
            }
            HashOutcome::Done => panic!("expected a switch"),
        }
        assert!(!mode.use_hashing(0));
    }

    #[test]
    fn seal_fails_cleanly_on_denied_budget() {
        let rec = TestObs::new();
        let ops = [StateOp::Sum];
        let mut t = table(1 << 10, &ops);
        t.insert_key(7, Murmur2::default().hash_u64(7));
        let budget = MemoryBudget::limited(1);
        let faults = FaultInjector::none();
        let store = RunStore::in_memory();
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let mut sink = LocalBuckets::new();
        let err = seal_into(&mut t, None, &mut sink, gate, &rec.obs()).unwrap_err();
        assert!(matches!(err, AggError::BudgetExceeded { limit: 1, .. }));
        assert!(sink.is_empty(), "no run may be emitted on a denied seal");
        assert_eq!(budget.outstanding(), 0);
        assert_eq!(rec.stats().budget_denials, 1);
    }

    /// A denied seal first spills the same worker's largest partitions —
    /// long runs bound for the same buckets — and its own runs stay
    /// resident.
    #[test]
    fn a_denied_seal_spills_the_workers_largest_partitions_first() {
        use crate::partitioning::partition_run;
        use crate::view::RunView;
        use hsa_partition::PartitionWriter;
        let dir = std::env::temp_dir().join(format!("hsa-seal-writer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = TestObs::new();
        let keys: Vec<u64> =
            (0..20_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let view = RunView::Borrowed { keys: &keys, cols: vec![&keys], aggregated: false };
        // Room for the writer's chunks and 1 KiB: not for the seal.
        let mut twin = PartitionWriter::new(1, &DepotAccount::default());
        twin.append(Murmur2::default(), 0, view.slices(None, 0), |j| view.slices(Some(j), 0));
        let budget = MemoryBudget::limited(twin.mem_bytes() + 1024);
        let faults = FaultInjector::none();
        let store = spill_store(&dir);
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let mut sink = LocalBuckets::new();
        let mut writer = None;
        partition_run(&mut writer, &view, 0, 0, &mut sink, gate, &rec.obs()).unwrap();
        let held = writer.as_ref().map(|w| w.held()).unwrap();
        assert_eq!(held, budget.outstanding());

        let ops = [StateOp::Sum];
        let mut t = table(1 << 10, &ops);
        for key in 0..200u64 {
            if let Insert::New(slot) | Insert::Hit(slot) =
                t.insert_key(key, Murmur2::default().hash_u64(key))
            {
                hsa_agg::fold_column(StateOp::Sum, false, t.col_mut(0), &[slot], &[key]);
            }
        }
        seal_into(&mut t, writer.as_mut(), &mut sink, gate, &rec.obs()).unwrap();
        let s = rec.stats();
        assert_eq!((s.budget_denials, s.budget_downgrades), (1, 1));
        assert!(writer.as_ref().unwrap().held() < held, "the writer gave bytes back");
        let (mut sealed, mut spilled) = (0, 0);
        for (_, bucket, _) in sink.into_nonempty() {
            for handle in bucket {
                if handle.aggregated() {
                    assert!(!handle.is_spilled(), "the seal's runs stay resident");
                    sealed += handle.len();
                } else {
                    assert!(handle.is_spilled(), "only spilled partitions leave the writer");
                    spilled += handle.len();
                }
            }
        }
        assert_eq!(sealed, 200);
        assert!(spilled > 0 && spilled < keys.len(), "largest partitions, not all: {spilled}");
        drop(writer);
        assert_eq!(budget.outstanding(), 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn denied_seal_downgrades_to_spill_when_a_dir_is_configured() {
        let dir = std::env::temp_dir().join(format!("hsa-seal-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = TestObs::new();
        let ops = [StateOp::Sum];
        let mut t = table(1 << 10, &ops);
        let h = Murmur2::default();
        for key in [7u64, 8, 9] {
            if let Insert::New(slot) | Insert::Hit(slot) = t.insert_key(key, h.hash_u64(key)) {
                hsa_agg::fold_column(StateOp::Sum, false, t.col_mut(0), &[slot], &[key * 10]);
            }
        }
        let budget = MemoryBudget::limited(1);
        let faults = FaultInjector::none();
        let store = spill_store(&dir);
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let mut sink = LocalBuckets::new();
        seal_into(&mut t, None, &mut sink, gate, &rec.obs()).unwrap();
        assert_eq!(budget.outstanding(), 0, "spilled runs hold no reservation");
        let mut rows = BTreeMap::new();
        for (_, bucket, res) in sink.into_nonempty() {
            assert_eq!(res.bytes(), 0);
            for handle in bucket {
                assert!(handle.is_spilled());
                let run = handle.into_run().unwrap();
                rows.extend(run.keys.to_vec().into_iter().zip(run.cols[0].to_vec()));
            }
        }
        assert_eq!(rows, BTreeMap::from([(7, 70), (8, 80), (9, 90)]));
        let s = rec.stats();
        assert!(s.spilled_runs() > 0);
        assert!(s.spilled_bytes > 0);
        assert_eq!(s.budget_denials, 1);
        assert_eq!(s.budget_downgrades, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
