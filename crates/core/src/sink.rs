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

use hsa_columnar::RunHandle;
use hsa_fault::Reservation;
use hsa_hash::FANOUT;
use hsa_tasks::sync::Mutex;

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

    /// Consume into `(digit, bucket, reservation)` triples for the
    /// non-empty buckets.
    pub(crate) fn into_nonempty(
        self,
    ) -> impl Iterator<Item = (usize, Vec<RunHandle>, Reservation)> {
        self.buckets
            .into_iter()
            .map(Mutex::into_inner)
            .enumerate()
            .filter(|(_, (b, _))| !b.is_empty())
            .map(|(d, (b, res))| (d, b, res))
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
            shared.into_nonempty().map(|(d, v, _)| (d, v.len())).collect();
        assert_eq!(got.len(), 8);
        assert!(got.iter().all(|&(d, n)| d % 30 == 0 && n == 10));
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
