//! Destinations for the runs a routine produces.
//!
//! The `∪`-operations of Algorithm 2: a recursion task collects runs into
//! its own local bucket array; the parallel level-0 main loop pushes runs
//! from many workers into shared, mutex-guarded buckets ("the management
//! of the runs between the recursive calls requires synchronization, but
//! this happens infrequently enough to be negligible", §3.2).
//!
//! Runs travel as [`RunHandle`]s: resident handles carry the memory
//! [`Reservation`] that paid for them, so the budget stays charged while
//! the run waits in a bucket and is released exactly when the consuming
//! sub-task drops its bucket; spilled handles carry an empty reservation —
//! their bytes live on disk, not in the budget.
//!
//! Resident runs no task has started on yet are what a denied request
//! may spill to make room ([`Pending::reclaim`]): the shared level-0
//! buckets until phase 2 takes them, then every bucket spawned and not
//! yet claimed by its task.

use hsa_columnar::{Run, RunHandle};
use hsa_fault::{AggError, Reservation};
use hsa_hash::FANOUT;
use hsa_tasks::sync::Mutex;
use std::collections::BTreeMap;
use std::ops::Range;

/// Anything that can receive the runs of one partitioning/hashing pass.
pub(crate) trait RunSink {
    /// Add `run` to the bucket for radix digit `digit`, together with the
    /// budget reservation backing its memory (empty for spilled runs).
    fn push_run(&mut self, digit: usize, run: RunHandle, res: Reservation);
}

/// Task-local buckets (no synchronization). The 256 slots are built when
/// the first run arrives: most bucket tasks end the recursion and never
/// push one.
pub(crate) struct LocalBuckets {
    buckets: Vec<(Vec<RunHandle>, Reservation)>,
}

impl LocalBuckets {
    pub(crate) fn new() -> Self {
        Self { buckets: Vec::new() }
    }

    /// True if no run was pushed — i.e. the bucket was fully aggregated in
    /// a single table and the recursion ends here.
    pub(crate) fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Consume into `(digit, bucket, reservation)` triples for the
    /// non-empty buckets.
    pub(crate) fn into_nonempty(
        self,
    ) -> impl Iterator<Item = (usize, Vec<RunHandle>, Reservation)> {
        self.buckets
            .into_iter()
            .enumerate()
            .filter(|(_, (b, _))| !b.is_empty())
            .map(|(d, (b, res))| (d, b, res))
    }
}

impl RunSink for LocalBuckets {
    fn push_run(&mut self, digit: usize, run: RunHandle, res: Reservation) {
        debug_assert!(!run.is_empty());
        if self.buckets.is_empty() {
            self.buckets.resize_with(FANOUT, || (Vec::new(), Reservation::empty()));
        }
        let (bucket, held) = &mut self.buckets[digit];
        bucket.push(run);
        held.merge(res);
    }
}

/// Shared buckets for the parallel main loop.
pub(crate) struct SharedBuckets {
    buckets: Vec<Mutex<(Vec<RunHandle>, Reservation)>>,
}

impl SharedBuckets {
    pub(crate) fn new() -> Self {
        Self {
            buckets: (0..FANOUT).map(|_| Mutex::new((Vec::new(), Reservation::empty()))).collect(),
        }
    }

    /// True if no run was pushed: no table filled and nothing was
    /// partitioned, so whatever the input held still sits in the worker
    /// tables. Only meaningful once the pushing scopes have quiesced.
    pub(crate) fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.lock().0.is_empty())
    }

    /// Move every bucket out, leaving them empty: phase 2 takes the
    /// level-1 buckets once the pushing scopes have quiesced.
    pub(crate) fn take_nonempty(&self) -> Vec<(usize, Vec<RunHandle>, Reservation)> {
        let buckets = self.buckets.iter().map(|b| std::mem::take(&mut *b.lock()));
        let buckets = buckets.enumerate().filter(|(_, (b, _))| !b.is_empty());
        buckets.map(|(d, (b, res))| (d, b, res)).collect()
    }
}

/// A `&SharedBuckets` is itself a sink (each push takes one short lock).
impl RunSink for &SharedBuckets {
    fn push_run(&mut self, digit: usize, run: RunHandle, res: Reservation) {
        debug_assert!(!run.is_empty());
        let mut guard = self.buckets[digit].lock();
        guard.0.push(run);
        guard.1.merge(res);
    }
}

/// The resident runs a denied request may spill to make room: the shared
/// level-0 buckets, and — when the store can spill — every bucket spawned
/// and not yet claimed by its task.
pub(crate) struct Pending {
    /// The level-1 buckets the level-0 workers fill.
    pub(crate) shared: SharedBuckets,
    /// Spawned buckets no task has claimed, by spawn ticket. The lock is
    /// held across a reclaim's spill, so a task claims its bucket before
    /// or after a reclaim, never in the middle of one.
    parked: Mutex<Parked>,
}

#[derive(Default)]
struct Parked {
    next: u64,
    buckets: BTreeMap<u64, (Vec<RunHandle>, Reservation)>,
}

impl Pending {
    pub(crate) fn new() -> Self {
        Self { shared: SharedBuckets::new(), parked: Mutex::new(Parked::default()) }
    }

    /// Park `buckets` until their tasks claim them; returns their tickets,
    /// in order.
    pub(crate) fn park(&self, buckets: Vec<(Vec<RunHandle>, Reservation)>) -> Range<u64> {
        let mut parked = self.parked.lock();
        let first = parked.next;
        parked.next += buckets.len() as u64;
        parked.buckets.extend((first..).zip(buckets));
        first..parked.next
    }

    /// The bucket parked under `ticket`, with every run it holds —
    /// resident or reclaimed to disk meanwhile. Each ticket is claimed
    /// once.
    pub(crate) fn claim(&self, ticket: u64) -> (Vec<RunHandle>, Reservation) {
        self.parked.lock().buckets.remove(&ticket).unwrap_or_default()
    }

    /// Spill resident runs, furthest from use first and the longest
    /// first among equals, until their share of the reservations released
    /// is at least `need` bytes, as one batch through `spill`; the spilled
    /// handles go back to their buckets. Returns how many runs were
    /// spilled: 0 when nothing resident is left.
    ///
    /// Furthest from use: the level-0 buckets all wait for phase 2, so
    /// among them the longest runs go first, whichever digit holds them;
    /// a spawned bucket is consumed later the earlier it was parked, since
    /// each worker runs its own tasks newest first, so the oldest parked
    /// bucket gives its longest runs first. (While the level-0 buckets
    /// fill, nothing is parked; once something is parked, they are
    /// empty.) Runs stay whole.
    pub(crate) fn reclaim(
        &self,
        need: u64,
        spill: impl FnOnce(Vec<Run>) -> Result<Vec<RunHandle>, AggError>,
    ) -> Result<usize, AggError> {
        let mut victims = Victims::default();
        while victims.freed.bytes() < need {
            let buckets = self.shared.buckets.iter().enumerate();
            let longest =
                buckets.filter_map(|(d, b)| longest_resident(&b.lock().0).map(|r| (r, d)));
            let Some((_, digit)) = longest.max() else { break };
            victims.take_longest(digit as u64, &mut self.shared.buckets[digit].lock());
        }
        if !victims.runs.is_empty() {
            return victims.spill(spill, |digit, handle| {
                self.shared.buckets[digit as usize].lock().0.push(handle);
            });
        }
        let mut parked = self.parked.lock();
        for (&ticket, bucket) in parked.buckets.iter_mut() {
            while victims.freed.bytes() < need && victims.take_longest(ticket, bucket) {}
        }
        victims.spill(spill, |ticket, handle| {
            if let Some(bucket) = parked.buckets.get_mut(&ticket) {
                bucket.0.push(handle);
            }
        })
    }
}

/// The bytes and index of the longest resident run among `handles`.
fn longest_resident(handles: &[RunHandle]) -> Option<(u64, usize)> {
    let resident = handles.iter().enumerate().filter_map(|(i, handle)| match handle {
        RunHandle::Mem(run) => Some((run.mem_bytes(), i)),
        RunHandle::Spilled(_) => None,
    });
    resident.max()
}

/// Runs a reclaim has taken out of their buckets, each with the slice of
/// its bucket's reservation that paid for it.
#[derive(Default)]
struct Victims {
    /// The bucket each run came from (digit or ticket).
    from: Vec<u64>,
    runs: Vec<Run>,
    freed: Reservation,
}

impl Victims {
    /// Take `bucket`'s longest resident run, if it has one.
    fn take_longest(&mut self, from: u64, bucket: &mut (Vec<RunHandle>, Reservation)) -> bool {
        let (handles, res) = bucket;
        let Some((_, i)) = longest_resident(handles) else { return false };
        let RunHandle::Mem(run) = handles.swap_remove(i) else { return false };
        self.freed.merge(res.take(run.mem_bytes()));
        self.from.push(from);
        self.runs.push(run);
        true
    }

    /// Spill the runs as one batch, hand each handle back to `put`, then
    /// release their reservations.
    fn spill(
        self,
        spill: impl FnOnce(Vec<Run>) -> Result<Vec<RunHandle>, AggError>,
        mut put: impl FnMut(u64, RunHandle),
    ) -> Result<usize, AggError> {
        let n = self.runs.len();
        if n > 0 {
            let handles = spill(self.runs)?;
            self.from.into_iter().zip(handles).for_each(|(from, handle)| put(from, handle));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_columnar::Run;
    use hsa_fault::MemoryBudget;

    fn run_of(n: u64) -> RunHandle {
        RunHandle::Mem(Run::from_rows(&(0..n).collect::<Vec<_>>(), &[]))
    }

    #[test]
    fn local_buckets_collect_by_digit() {
        let mut b = LocalBuckets::new();
        assert!(b.is_empty());
        b.push_run(3, run_of(2), Reservation::empty());
        b.push_run(3, run_of(1), Reservation::empty());
        b.push_run(250, run_of(5), Reservation::empty());
        assert!(!b.is_empty());
        let got: Vec<(usize, usize)> = b.into_nonempty().map(|(d, v, _)| (d, v.len())).collect();
        assert_eq!(got, vec![(3, 2), (250, 1)]);
    }

    #[test]
    fn buckets_hold_reservations_until_dropped() {
        let budget = MemoryBudget::limited(1000);
        let mut b = LocalBuckets::new();
        b.push_run(1, run_of(2), budget.try_reserve(100).unwrap());
        b.push_run(1, run_of(2), budget.try_reserve(50).unwrap());
        b.push_run(9, run_of(2), budget.try_reserve(25).unwrap());
        assert_eq!(budget.outstanding(), 175);
        let triples: Vec<_> = b.into_nonempty().collect();
        assert_eq!(budget.outstanding(), 175, "reservations travel with the buckets");
        assert_eq!(triples[0].2.bytes(), 150);
        assert_eq!(triples[1].2.bytes(), 25);
        drop(triples);
        assert_eq!(budget.outstanding(), 0);
    }

    #[test]
    fn shared_buckets_accept_concurrent_pushes() {
        let shared = SharedBuckets::new();
        hsa_tasks::scope(4, |s| {
            for d in 0..8usize {
                let shared = &shared;
                s.spawn(move |_| {
                    let mut sink = shared;
                    for _ in 0..10 {
                        sink.push_run(d * 30, run_of(1), Reservation::empty());
                    }
                });
            }
        });
        let got: Vec<(usize, usize)> =
            shared.take_nonempty().into_iter().map(|(d, v, _)| (d, v.len())).collect();
        assert_eq!(got.len(), 8);
        assert!(got.iter().all(|&(d, n)| d % 30 == 0 && n == 10));
    }

    /// A reclaim takes resident runs furthest from use first — the longest
    /// of the level-0 buckets whatever their digit, then the oldest parked
    /// bucket's, longest first — spills them as one batch, releases their
    /// share of the reservation, and every bucket still holds every one of
    /// its runs when its task claims it.
    #[test]
    fn reclaim_spills_furthest_from_use_first_and_claims_see_every_run() {
        let dir = std::env::temp_dir().join(format!("hsa-sink-reclaim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::driver::spill_store(&dir);
        let budget = MemoryBudget::limited(1 << 20);
        let resident = |n: u64| {
            let run = Run::from_rows(&(0..n).collect::<Vec<_>>(), &[]);
            let res = budget.try_reserve(run.mem_bytes()).unwrap();
            (RunHandle::Mem(run), res)
        };
        let bytes_of = |n: u64| Run::from_rows(&(0..n).collect::<Vec<_>>(), &[]).mem_bytes();
        let (short, long) = (bytes_of(100), bytes_of(3_000));
        let mut batches = 0;
        let mut spill = |runs: Vec<Run>| {
            batches += 1;
            store.spill_batch(runs)
        };
        let pending = Pending::new();

        for (digit, rows) in [(5, 100), (9, 3_000)] {
            let (run, res) = resident(rows);
            (&pending.shared).push_run(digit, run, res);
        }
        assert_eq!(pending.reclaim(1, &mut spill).unwrap(), 1);
        let level1 = pending.shared.take_nonempty();
        let spilled: Vec<(usize, bool)> =
            level1.iter().map(|(d, b, _)| (*d, b[0].is_spilled())).collect();
        assert_eq!(spilled, vec![(5, false), (9, true)], "the longest run goes first");
        assert_eq!(budget.outstanding(), short);
        drop(level1);

        // Each parked bucket: a short resident run and one already on
        // disk; the oldest also holds a long resident run.
        let buckets = (0..3).map(|nth| {
            let (run, mut res) = resident(100);
            let mut handles = store.spill_batch(vec![Run::from_rows(&[7, 8], &[])]).unwrap();
            handles.push(run);
            if nth == 0 {
                let (long_run, long_res) = resident(3_000);
                handles.push(long_run);
                res.merge(long_res);
            }
            (handles, res)
        });
        let tickets = pending.park(buckets.collect());
        assert_eq!(budget.outstanding(), 3 * short + long);
        assert_eq!(pending.reclaim(1, &mut spill).unwrap(), 1);
        assert_eq!(budget.outstanding(), 3 * short, "the oldest bucket's longest run");
        // More than one run's share: the rest of the oldest bucket, then
        // the next oldest.
        assert_eq!(pending.reclaim(short + 1, &mut spill).unwrap(), 2);
        assert_eq!(budget.outstanding(), short);
        let claimed: Vec<Vec<bool>> = tickets
            .clone()
            .map(|t| pending.claim(t).0.iter().map(RunHandle::is_spilled).collect())
            .collect();
        let spilled_of = |b: &Vec<bool>| b.iter().filter(|&&s| s).count();
        let lens: Vec<usize> = claimed.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![3, 2, 2], "every run of every bucket, once");
        assert_eq!(claimed.iter().map(spilled_of).collect::<Vec<_>>(), vec![3, 2, 1]);
        assert_eq!(pending.claim(tickets.start).0.len(), 0, "a ticket is claimed once");
        assert_eq!(pending.reclaim(1, &mut spill).unwrap(), 0, "nothing resident is left");
        assert_eq!(batches, 3, "one batch per reclaim that spilled");
        drop(claimed);
        assert_eq!(budget.outstanding(), 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_handles_ride_with_empty_reservations() {
        let dir = std::env::temp_dir().join(format!("hsa-sink-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::driver::spill_store(&dir);
        let spilled =
            store.spill_batch(vec![Run::from_rows(&[1, 2], &[&[3, 4]])]).unwrap().pop().unwrap();
        let mut b = LocalBuckets::new();
        b.push_run(7, spilled, Reservation::empty());
        let triples: Vec<_> = b.into_nonempty().collect();
        assert_eq!(triples.len(), 1);
        assert!(triples[0].1[0].is_spilled());
        assert_eq!(triples[0].2.bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
