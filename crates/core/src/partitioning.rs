//! The `PARTITIONING` routine (Algorithm 1, lines 1–4) in column-wise form.
//!
//! The key column is radix-partitioned — hashed 16 keys ahead, each key
//! stored straight into the open chunk of its partition — while recording
//! one digit per row; each column travelling with the keys is then
//! scattered by replaying the digits (§3.3). Raw rows travel as the
//! query's distinct inputs, partial aggregates as one column per state
//! ([`crate::view::StateCols`]). The 256 outputs become runs of the next
//! level, preserving the `aggregated` flag of the source (partitioning
//! never aggregates — that is exactly its trade-off).
//!
//! The outputs outlive the call: a [`RunWriter`] belongs to whoever
//! partitions — a level-0 worker for the whole stream, a bucket task for
//! its whole bucket — and keeps appending to the same 256 partitions, so a
//! run is as long as its owner's share of the digit, however the input was
//! cut into morsels and pushes. Runs leave the writer when its owner is
//! done ([`RunWriter::hand_off`]), or earlier when the budget says so.

use crate::exec::Gate;
use crate::obs::Obs;
use crate::sink::RunSink;
use crate::view::RunView;
use hsa_columnar::{DepotAccount, Run, RunHandle};
use hsa_fault::{AggError, Reservation};
use hsa_hash::{Murmur2, FANOUT};
use hsa_obs::{Counter, Hist, LevelCounter, Phase};
use hsa_partition::PartitionWriter;

/// One owner's `PARTITIONING` outputs at one level, with the budget
/// reservation that pays for them.
///
/// The reservation follows the writer's memory: after every append it is
/// topped up to what the writer holds, and every run that leaves takes a
/// slice equal to its own `mem_bytes()` along — a hand-off moves chunks
/// and reserves nothing. Dropping a writer with rows still in it (a
/// failed stream) releases all of it.
pub(crate) struct RunWriter {
    /// Built for the column count of the kind of rows it holds.
    parts: PartitionWriter,
    /// Radix level of the appended rows; runs leave at `level + 1`.
    level: u32,
    /// Whether the buffered rows are partial aggregates. A run never
    /// mixes the two kinds (they carry different columns), so a change of
    /// kind hands the content off and starts a new writer.
    aggregated: bool,
    res: Reservation,
}

impl RunWriter {
    fn new(level: u32, n_cols: usize, aggregated: bool, depot: &DepotAccount) -> Self {
        let parts = PartitionWriter::new(n_cols, depot);
        Self { parts, level, aggregated, res: Reservation::empty() }
    }

    /// Bring the reservation up to `bytes`. `Ok(false)` is a denial the
    /// caller may spill around (degradable, spill directory configured);
    /// any other denial is the error.
    fn cover(&mut self, bytes: u64, gate: Gate<'_>, obs: &Obs) -> Result<bool, AggError> {
        let grown = bytes.saturating_sub(self.res.bytes());
        if grown == 0 {
            return Ok(true);
        }
        match gate.reserve(grown, obs) {
            Ok(more) => {
                self.res.merge(more);
                Ok(true)
            }
            Err(e) if gate.can_spill(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Bytes the writer's reservation holds.
    pub(crate) fn held(&self) -> u64 {
        self.res.bytes()
    }

    /// The buffered rows of the `selected` digits as runs of the next
    /// level, one per non-empty digit, in digit order.
    fn take_runs(&mut self, selected: impl FnMut(usize) -> bool) -> Vec<(usize, Run)> {
        let (level, aggregated) = (self.level + 1, self.aggregated);
        let mut runs = Vec::new();
        self.parts.drain_where(selected, |digit, keys, cols| {
            let source_rows = keys.len() as u64;
            runs.push((digit, Run { keys, cols, aggregated, source_rows, level }));
        });
        runs
    }

    /// Spill the largest partitions, whole, as one batch (one fault
    /// ordinal; the store cuts it into files and holds the call while too
    /// many of its bytes are still unwritten), until what stays fits in
    /// `keep` bytes — then give back what the reservation holds beyond
    /// what stays. The other partitions stay resident and keep appending.
    /// A denied cover keeps what the writer held before the append; a
    /// denied seal of the same worker's table keeps less, by what the
    /// seal was denied.
    pub(crate) fn spill_victims(
        &mut self,
        keep: u64,
        sink: &mut impl RunSink,
        gate: Gate<'_>,
        obs: &Obs,
    ) -> Result<(), AggError> {
        let mut sizes: Vec<(u64, usize)> =
            (0..FANOUT).map(|d| (self.parts.digit_mem_bytes(d), d)).filter(|s| s.0 > 0).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let mut resident = self.parts.mem_bytes();
        let mut victim = [false; FANOUT];
        for (bytes, digit) in sizes {
            if resident <= keep {
                break;
            }
            victim[digit] = true;
            resident -= bytes;
        }
        obs.event(
            Counter::BudgetDowngrades,
            "partition_spill",
            &[("level", self.level as u64), ("rows", self.parts.len() as u64)],
        );
        let (digits, runs): (Vec<usize>, Vec<Run>) =
            self.take_runs(|d| victim[d]).into_iter().unzip();
        let handles = gate.spill_batch(runs, obs)?;
        for (digit, handle) in digits.into_iter().zip(handles) {
            sink.push_run(digit, handle, Reservation::empty());
        }
        drop(self.res.take(self.res.bytes().saturating_sub(self.parts.mem_bytes())));
        Ok(())
    }

    /// The owner is done (or the kind of rows changes): hand every
    /// buffered row to `sink` as resident runs, each taking the slice of
    /// the reservation that covers it (the last append reserved every
    /// byte they hold).
    pub(crate) fn hand_off(&mut self, sink: &mut impl RunSink, obs: &Obs) {
        if self.parts.is_empty() {
            return;
        }
        let pt = obs.phase_start(self.level, Phase::Partition);
        let rows = self.parts.len() as u64;
        let runs = self.take_runs(|_| true);
        if let Some(longest) = runs.iter().map(|(_, run)| run.len()).max() {
            // Per-digit skew: largest partition as % of the mean (100 = even).
            obs.observe(Hist::PartitionSkewPct, longest as u64 * FANOUT as u64 * 100 / rows);
        }
        for (digit, run) in runs {
            let run_res = self.res.take(run.mem_bytes());
            sink.push_run(digit, RunHandle::Mem(run), run_res);
        }
        obs.phase_end(pt, 0, 0, 0);
    }
}

/// Partition rows `[from_row..]` of `view` into `writer`, creating it on
/// first use.
///
/// The rows stay in the writer; `sink` only receives runs when the writer
/// has to let go of some: buffered rows of the other kind (`aggregated`
/// differs) are handed off first and the writer is rebuilt for the
/// columns this kind carries, and when the budget denies the bytes
/// the append allocated — degradably, with a spill directory configured —
/// the denial is downgraded and the largest partitions go to the spill
/// store as one batch, until the rest fits what the writer had reserved
/// before the append. Hard denials and runs without a spill directory
/// surface `BudgetExceeded` with nothing pushed.
///
/// The writer is the one growth site that reserves *after* allocating:
/// which partitions grow depends on digits it has not computed yet, and
/// no bound short of a full chunk per partition holds for a single
/// append. The overshoot is at most one view's payload plus chunk slack.
pub(crate) fn partition_run(
    writer: &mut Option<RunWriter>,
    view: &RunView<'_>,
    from_row: usize,
    level: u32,
    sink: &mut impl RunSink,
    gate: Gate<'_>,
    obs: &Obs,
) -> Result<(), AggError> {
    let rows = (view.len() - from_row) as u64;
    if rows == 0 {
        return Ok(());
    }
    let (n_cols, aggregated) = (view.n_cols(), view.aggregated());
    let w = writer.get_or_insert_with(|| RunWriter::new(level, n_cols, aggregated, gate.depot));
    debug_assert_eq!(w.level, level, "a writer serves one level");
    if w.aggregated != aggregated {
        w.hand_off(sink, obs);
        *w = RunWriter::new(level, n_cols, aggregated, gate.depot);
    }
    debug_assert_eq!(w.parts.n_cols(), n_cols, "rows of one kind carry the same columns");
    let pt = obs.phase_start(level, Phase::Partition);
    w.parts.append(Murmur2::default(), level, view.slices(None, from_row), |j| {
        view.slices(Some(j), from_row)
    });
    obs.count_at(LevelCounter::PartRows, level, rows);
    // What the pass wrote: the key and every column that travelled.
    let bytes = rows * 8 * (1 + n_cols as u64);
    obs.count(Counter::PartBytes, bytes);

    if !w.cover(w.parts.mem_bytes(), gate, obs)? {
        w.spill_victims(w.held(), sink, gate, obs)?;
    }
    // Spill time was attributed to its own phase by the nested-time
    // accounting; this cell holds the pure partition cost.
    obs.phase_end(pt, rows, rows, bytes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::spill_store;
    use crate::obs::testing::TestObs;
    use crate::sink::{LocalBuckets, Pending};
    use hsa_columnar::{RunStore, SpillConfig};
    use hsa_fault::{DiskBudget, FaultInjector, MemoryBudget};
    use hsa_hash::{digit, Hasher64};

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

    fn raw_view<'a>(keys: &'a [u64], cols: Vec<&'a [u64]>) -> RunView<'a> {
        RunView::Borrowed { keys, cols, aggregated: false }
    }

    /// Partition `view[from_row..]` at level 0 into `writer`.
    fn partition(
        writer: &mut Option<RunWriter>,
        view: &RunView<'_>,
        from_row: usize,
        sink: &mut LocalBuckets,
        gate: Gate<'_>,
        rec: &TestObs,
    ) -> Result<(), AggError> {
        partition_run(writer, view, from_row, 0, sink, gate, &rec.obs())
    }

    fn hand_off(writer: &mut Option<RunWriter>, sink: &mut LocalBuckets, rec: &TestObs) {
        writer.as_mut().expect("a writer exists").hand_off(sink, &rec.obs());
    }

    #[test]
    fn rows_stay_in_the_writer_until_handed_off() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 2654435761 % 1000).collect();
        let vals: Vec<u64> = (0..10_000).collect();
        let mut sink = LocalBuckets::new();
        let rec = TestObs::new();
        let mut writer = None;
        // Two morsels of one worker: one writer, one run per digit.
        for range in [0..6_000usize, 6_000..10_000] {
            let view = raw_view(&keys[range.clone()], vec![&vals[range]]);
            partition(&mut writer, &view, 0, &mut sink, open_gate!(), &rec).unwrap();
            assert!(sink.is_empty(), "an append must not emit runs");
        }
        assert_eq!(rec.stats().part_rows_per_level[0], 10_000);
        hand_off(&mut writer, &mut sink, &rec);

        let h = Murmur2::default();
        let mut total = 0usize;
        for (d, bucket, _res) in sink.into_nonempty() {
            assert_eq!(bucket.len(), 1, "digit {d}: morsels must not cut runs");
            for handle in bucket {
                let run = handle.into_run().unwrap();
                assert!(!run.aggregated);
                assert_eq!(run.level, 1);
                run.check_consistent().unwrap();
                total += run.len();
                // Every key belongs to the digit; its value travelled along.
                let ks = run.keys.to_vec();
                let vs = run.cols[0].to_vec();
                for (k, v) in ks.iter().zip(&vs) {
                    assert_eq!(digit(h.hash_u64(*k), 0), d);
                    // vals[i] == i and keys derived from i:
                    assert_eq!(*k, *v * 2654435761 % 1000);
                }
            }
        }
        assert_eq!(total, keys.len());
    }

    #[test]
    fn partitions_suffix_only() {
        let keys: Vec<u64> = (0..1000).collect();
        let mut sink = LocalBuckets::new();
        let rec = TestObs::new();
        let mut writer = None;
        partition(&mut writer, &raw_view(&keys, vec![]), 900, &mut sink, open_gate!(), &rec)
            .unwrap();
        hand_off(&mut writer, &mut sink, &rec);
        let total: usize =
            sink.into_nonempty().map(|(_, b, _)| b.iter().map(RunHandle::len).sum::<usize>()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn empty_suffix_builds_no_writer() {
        let keys: Vec<u64> = (0..10).collect();
        let mut sink = LocalBuckets::new();
        let rec = TestObs::new();
        let mut writer = None;
        partition(&mut writer, &raw_view(&keys, vec![]), 10, &mut sink, open_gate!(), &rec)
            .unwrap();
        assert!(writer.is_none());
        assert!(sink.is_empty());
    }

    #[test]
    fn a_change_of_kind_hands_off_and_the_next_runs_carry_the_other_columns() {
        use hsa_columnar::ChunkedVec;
        // COUNT(*), SUM(v): partials travel as two state columns, raw
        // rows as the one input.
        let sealed = |keys: &[u64]| {
            let col = ChunkedVec::from_slice(&vec![5; keys.len()]);
            RunView::Owned(Run {
                keys: ChunkedVec::from_slice(keys),
                cols: vec![col.clone(), col],
                aggregated: true,
                source_rows: 30,
                level: 1,
            })
        };
        let raw_keys: Vec<u64> = (100..400).collect();
        let mut sink = LocalBuckets::new();
        let rec = TestObs::new();
        let mut writer = None;
        let obs = rec.obs();
        let mut part = |view: &RunView<'_>, sink: &mut LocalBuckets| {
            partition_run(&mut writer, view, 0, 1, sink, open_gate!(), &obs).unwrap()
        };
        part(&sealed(&[1, 2, 3]), &mut sink);
        part(&sealed(&[4, 5]), &mut sink);
        assert!(sink.is_empty(), "same kind: keeps buffering");
        // The other kind arrives: the aggregated rows leave first.
        part(&raw_view(&raw_keys, vec![&raw_keys]), &mut sink);
        assert!(!sink.is_empty());
        // And back again: the raw rows leave, the writer is rebuilt.
        part(&sealed(&[6]), &mut sink);
        hand_off(&mut writer, &mut sink, &rec);
        let (mut agg_rows, mut raw_rows) = (0, 0);
        for (_, bucket, _res) in sink.into_nonempty() {
            for r in bucket {
                assert_eq!(r.level(), 2);
                let run = r.into_run().unwrap();
                run.check_consistent().unwrap();
                if run.aggregated {
                    assert_eq!(run.n_cols(), 2, "partials carry a column per state");
                    assert!(run.keys.iter().all(|k| k <= 6), "raw keys in an aggregated run");
                    assert!(run.cols.iter().all(|c| c.iter().all(|v| v == 5)));
                    agg_rows += run.len();
                } else {
                    assert_eq!(run.n_cols(), 1, "raw rows carry the one input");
                    assert!(run.keys.iter().all(|k| k >= 100), "partials in a raw run");
                    assert_eq!(run.keys, run.cols[0]);
                    raw_rows += run.len();
                }
            }
        }
        assert_eq!((agg_rows, raw_rows), (6, 300));
        let bytes = (5 + 1) * 8 * 3 + 300 * 8 * 2;
        assert_eq!(rec.counter(Counter::PartBytes), bytes, "each kind at its own width");
    }

    #[test]
    fn runs_leave_with_their_exact_share_of_the_reservation() {
        let keys: Vec<u64> = (0..5_000).collect();
        let budget = MemoryBudget::limited(1 << 30);
        let faults = FaultInjector::none();
        let rec = TestObs::new();
        let store = RunStore::in_memory();
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let mut sink = LocalBuckets::new();
        let mut writer = None;
        partition(&mut writer, &raw_view(&keys, vec![&keys]), 0, &mut sink, gate, &rec).unwrap();
        let held = writer.as_ref().map(|w| w.parts.mem_bytes());
        assert_eq!(Some(budget.outstanding()), held, "the reservation is the writer's memory");
        // A budget with not one byte to spare: the hand-off moves chunks,
        // so it has nothing to ask for and nothing to be denied.
        let exact = MemoryBudget::limited(held.unwrap());
        let tight = Gate {
            budget: &exact,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let (mut other, mut other_sink) = (None, LocalBuckets::new());
        partition(&mut other, &raw_view(&keys, vec![&keys]), 0, &mut other_sink, tight, &rec)
            .unwrap();
        assert_eq!(exact.outstanding(), held.unwrap());
        hand_off(&mut other, &mut other_sink, &rec);
        assert_eq!((exact.outstanding(), exact.high_water()), (held.unwrap(), held.unwrap()));
        assert_eq!(rec.stats().budget_denials, 0);
        drop((other, other_sink));
        assert_eq!(exact.outstanding(), 0);

        hand_off(&mut writer, &mut sink, &rec);
        assert_eq!(budget.outstanding(), held.unwrap(), "a hand-off moves bytes, it frees none");
        for (_, bucket, res) in sink.into_nonempty() {
            let bytes = |h: &RunHandle| match h {
                RunHandle::Mem(run) => run.mem_bytes(),
                RunHandle::Spilled(..) => 0,
            };
            assert_eq!(res.bytes(), bucket.iter().map(bytes).sum::<u64>());
        }
        // Runs gone: the writer still pays for its digit scratch.
        assert_eq!(budget.outstanding(), writer.as_ref().unwrap().parts.mem_bytes());
        drop(writer);
        assert_eq!(budget.outstanding(), 0);
    }

    #[test]
    fn denied_budget_fails_with_nothing_pushed_and_a_drop_returns_the_bytes() {
        let keys: Vec<u64> = (0..20_000).collect();
        let mut sink = LocalBuckets::new();
        let rec = TestObs::new();
        // Room for the first morsel's chunks, not for the second's.
        let budget = MemoryBudget::limited(200 << 10);
        let faults = FaultInjector::none();
        let store = RunStore::in_memory();
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let mut writer = None;
        partition(&mut writer, &raw_view(&keys[..10_000], vec![]), 0, &mut sink, gate, &rec)
            .unwrap();
        assert!(budget.outstanding() > 0);
        let err = partition(&mut writer, &raw_view(&keys, vec![]), 10_000, &mut sink, gate, &rec)
            .unwrap_err();
        assert!(matches!(err, AggError::BudgetExceeded { limit, .. } if limit == 200 << 10));
        assert!(sink.is_empty());
        assert_eq!(rec.stats().budget_downgrades, 0);
        // The stream is poisoned here; dropping it drops the writer.
        drop(writer);
        assert_eq!(budget.outstanding(), 0);
    }

    /// A denial spills whole digits, largest first, until what stays fits
    /// the reservation the writer held before the append — as one batch:
    /// a single gate ordinal however many segment files the store cuts it
    /// into (one for a few hundred KiB, two or more, a storage ordinal
    /// each, once the victims outgrow a segment). Every row comes back
    /// once.
    #[test]
    fn a_denial_spills_the_largest_digits_whole_as_one_batch() {
        use hsa_fault::{FaultPlan, SpillFault, SpillFaultKind};
        // (rows per morsel, distinct keys, budget, segment files)
        for (part, modulus, limit, files) in
            [(10_000usize, 7_000u64, 400u64 << 10, 1..=1), (300_000, 700_001, 12 << 20, 2..=3)]
        {
            let dir = std::env::temp_dir().join(format!("hsa-part-spill-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let keys: Vec<u64> = (0..3 * part as u64).map(|i| i * 2654435761 % modulus).collect();
            let vals: Vec<u64> = (0..3 * part as u64).collect();
            let mut sink = LocalBuckets::new();
            let rec = TestObs::new();
            let budget = MemoryBudget::limited(limit);
            // The second gate ordinal fails, and the second storage write
            // is retried: a batch that took an ordinal per file would trip
            // over the first, and one that wrote a single file never
            // reaches the second.
            let faults = FaultInjector::new(FaultPlan {
                fail_spill: Some(2),
                spill_io: Some(SpillFault { nth: 2, kind: SpillFaultKind::WriteEio }),
                ..FaultPlan::none()
            });
            // In-line I/O: the batch's files exist when the call returns.
            let store = RunStore::spilling_with_config(
                &dir,
                faults.clone(),
                DiskBudget::unlimited(),
                SpillConfig { io_threads: 0 },
            )
            .unwrap();
            let gate = Gate {
                budget: &budget,
                faults: &faults,
                store: &store,
                depot: &DepotAccount::default(),
                pending: &Pending::new(),
            };
            let spill_files = || {
                std::fs::read_dir(&dir)
                    .unwrap()
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".bin"))
                    .count()
            };
            let mut writer = None;
            // A morsel, then one twice its size.
            let morsel = |nth: usize| {
                let range = [0..part, part..3 * part][nth].clone();
                raw_view(&keys[range.clone()], vec![&vals[range]])
            };
            // What each digit holds once both morsels are in: a writer
            // fed alike is cut alike.
            let mut twin = PartitionWriter::new(1, &DepotAccount::default());
            for nth in 0..2 {
                let view = morsel(nth);
                twin.append(Murmur2::default(), 0, view.slices(None, 0), |j| {
                    view.slices(Some(j), 0)
                });
            }
            let sizes: Vec<u64> = (0..FANOUT).map(|d| twin.digit_mem_bytes(d)).collect();

            partition(&mut writer, &morsel(0), 0, &mut sink, gate, &rec).unwrap();
            let held = budget.outstanding();
            assert!(sink.is_empty() && held > 0, "the first morsel fits");
            // The second's chunks do not: the largest digits leave.
            partition(&mut writer, &morsel(1), 0, &mut sink, gate, &rec).unwrap();
            let s = rec.stats();
            assert_eq!((s.budget_denials, s.budget_downgrades), (1, 1));
            assert!(
                files.contains(&spill_files()),
                "{} files for {part}-row morsels",
                spill_files()
            );
            assert_eq!(faults.spill_io_fired(), spill_files().min(2) as u64 - 1);
            let w = writer.as_ref().unwrap();
            let resident = w.parts.mem_bytes();
            assert_eq!(budget.outstanding(), resident, "the surplus was given back");
            assert!(resident <= held, "what stays fits the reservation held");

            let victims: Vec<usize> = (0..FANOUT).filter(|&d| sizes[d] > 0).collect();
            let (victims, kept): (Vec<usize>, Vec<usize>) =
                victims.into_iter().partition(|&d| w.parts.digit_mem_bytes(d) == 0);
            assert!(!victims.is_empty() && !kept.is_empty(), "a share of the digits spilled");
            assert_eq!(s.spilled_runs(), victims.len() as u64, "whole digits, one run each");
            let smallest_victim = victims.iter().map(|&d| sizes[d]).min().unwrap();
            assert!(kept.iter().all(|&d| sizes[d] <= smallest_victim), "largest first");
            assert!(resident + smallest_victim > held, "no more than the overflow");
            hand_off(&mut writer, &mut sink, &rec);
            drop(writer);

            let h = Murmur2::default();
            let (mut spilled_rows, mut rows) = (0usize, 0usize);
            for (d, bucket, _res) in sink.into_nonempty() {
                assert_eq!(bucket.len(), 1, "digit {d}: spilled or resident, whole");
                let handle = bucket.into_iter().next().unwrap();
                assert_eq!(handle.is_spilled(), victims.contains(&d), "digit {d}");
                let spilled = handle.is_spilled();
                let run = handle.into_run().unwrap();
                run.check_consistent().unwrap();
                // Handles came back in digit order, across segments:
                // every run sits in the bucket of its own digit.
                for (k, v) in run.keys.iter().zip(run.cols[0].iter()) {
                    assert_eq!(digit(h.hash_u64(k), 0), d);
                    assert_eq!(k, v * 2654435761 % modulus);
                }
                spilled_rows += if spilled { run.len() } else { 0 };
                rows += run.len();
            }
            assert!(spilled_rows > 0);
            assert_eq!(rows, 3 * part, "every row once");
            assert_eq!(budget.outstanding(), 0);
            assert_eq!(spill_files(), 0, "consumed runs left files behind");
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Nothing in the spill format knows the query: a raw run of a query
    /// with more states than inputs — `COUNT(*)` alone carries no column
    /// at all — comes back from disk as it went.
    #[test]
    fn a_raw_run_with_fewer_columns_than_states_survives_a_spill() {
        use hsa_columnar::ChunkedVec;
        let dir = std::env::temp_dir().join(format!("hsa-part-narrow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = TestObs::new();
        let budget = MemoryBudget::unlimited();
        let faults = FaultInjector::none();
        let store = spill_store(&dir);
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let keys: Vec<u64> = (0..5_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let vals: Vec<u64> = (0..5_000).collect();
        let raw = |cols: &[&[u64]]| Run {
            keys: ChunkedVec::from_slice(&keys),
            cols: cols.iter().map(|c| ChunkedVec::from_slice(c)).collect(),
            aggregated: false,
            source_rows: keys.len() as u64,
            level: 1,
        };
        let runs = vec![raw(&[]), raw(&[&vals])];
        let handles = gate.spill_batch(runs.clone(), &rec.obs()).unwrap();
        for (handle, run) in handles.into_iter().zip(runs) {
            assert!(handle.is_spilled());
            assert_eq!((handle.n_cols(), handle.aggregated()), (run.n_cols(), false));
            let back = gate.restore(handle, &rec.obs()).unwrap();
            assert_eq!((back.keys, back.cols), (run.keys, run.cols));
            assert_eq!((back.aggregated, back.source_rows, back.level), (false, 5_000, 1));
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_injected_denial_is_not_downgraded() {
        use hsa_fault::FaultPlan;
        let dir = std::env::temp_dir().join(format!("hsa-part-inject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let keys: Vec<u64> = (0..1_000).collect();
        let mut sink = LocalBuckets::new();
        let rec = TestObs::new();
        let budget = MemoryBudget::limited(1 << 30);
        let faults = FaultInjector::new(FaultPlan { fail_alloc: Some(1), ..FaultPlan::none() });
        let store = spill_store(&dir);
        let gate = Gate {
            budget: &budget,
            faults: &faults,
            store: &store,
            depot: &DepotAccount::default(),
            pending: &Pending::new(),
        };
        let mut writer = None;
        let err =
            partition(&mut writer, &raw_view(&keys, vec![]), 0, &mut sink, gate, &rec).unwrap_err();
        assert!(matches!(err, AggError::BudgetExceeded { limit: 0, .. }));
        assert!(sink.is_empty());
        assert_eq!(rec.stats().spilled_runs(), 0);
        drop(writer);
        assert_eq!(budget.outstanding(), 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
