//! The operator's result, and the sink the tasks that seal its groups
//! write it through.

use hsa_agg::{Finalizer, Plan};
use hsa_fault::{AggError, Reservation};
use hsa_tasks::sync::Mutex;

/// The result's columns, allocated once when level 0 has handed over
/// ([`crate::AggStream::finish`]) and written in place by the tasks that
/// seal the final groups, through an [`OutSink`].
///
/// The room is an upper bound on the groups, no larger than the runs the
/// query already holds when it is allocated (or the budget's groups). It
/// is allocated zeroed: where the allocator maps fresh pages for it (glibc
/// `calloc` above its mmap threshold), pages no group reaches are never
/// touched; below that threshold the allocator may clear all of it.
pub(crate) struct OutColumns {
    keys: Vec<u64>,
    states: Vec<Vec<u64>>,
}

impl OutColumns {
    /// Room for `cap` groups of `n_cols` state columns.
    pub(crate) fn zeroed(cap: usize, n_cols: usize) -> Self {
        Self { keys: vec![0; cap], states: (0..n_cols).map(|_| vec![0; cap]).collect() }
    }

    /// The sink the final groups are claimed through.
    pub(crate) fn sink(&mut self) -> OutSink<'_> {
        let tail = Tail {
            keys: &mut self.keys,
            states: self.states.iter_mut().map(Vec::as_mut_slice).collect(),
            claimed: 0,
            res: Reservation::empty(),
        };
        OutSink { tail: Mutex::new(tail) }
    }

    /// The result: the first `groups` rows, the columns cut to exactly
    /// that length in place.
    pub(crate) fn into_output(self, groups: usize, plan: Plan) -> GroupByOutput {
        let Self { mut keys, mut states } = self;
        for col in std::iter::once(&mut keys).chain(&mut states) {
            col.truncate(groups);
            col.shrink_to_fit();
        }
        GroupByOutput { keys, states, plan }
    }
}

/// Hands each task that seals final groups an exact, disjoint range of
/// the result ([`OutSink::claim`]); the task writes its groups there
/// outside any lock (§3.2: bucket tasks share no state), so the first
/// touch of the result's pages is spread over the tasks that fill them.
///
/// The sink holds the budget reservations backing the claimed ranges
/// until the result is handed to the caller. Unlike intermediate runs,
/// final output blocks are never spilled: they are the caller's result,
/// so a denied output reservation stays a hard `AggError::BudgetExceeded`
/// even when a spill directory is configured.
pub(crate) struct OutSink<'a> {
    tail: Mutex<Tail<'a>>,
}

/// What is left of the result to claim.
struct Tail<'a> {
    keys: &'a mut [u64],
    states: Vec<&'a mut [u64]>,
    claimed: usize,
    res: Reservation,
}

/// One task's range of the result: its keys and one slice per state
/// column, each as long as the groups it claimed.
pub(crate) struct Claim<'a> {
    pub(crate) keys: &'a mut [u64],
    pub(crate) states: Vec<&'a mut [u64]>,
}

impl<'a> OutSink<'a> {
    /// Claim the next `groups` rows of the result, folding in the
    /// reservation `res` that paid for them. A claim beyond the room the
    /// result was allocated with is refused, and the caller's reservation
    /// released: the room is an upper bound on the groups, so this names
    /// a broken bound, not a denial of the memory budget. The error's
    /// `limit` is the result's room and `reserved` what was claimed of
    /// it, in bytes.
    pub(crate) fn claim(&self, groups: usize, res: Reservation) -> Result<Claim<'a>, AggError> {
        let mut tail = self.tail.lock();
        let room = tail.keys.len();
        if groups > room {
            let row_bytes = 8 * (1 + tail.states.len() as u64);
            return Err(AggError::BudgetExceeded {
                requested: groups as u64 * row_bytes,
                limit: (tail.claimed + room) as u64 * row_bytes,
                reserved: tail.claimed as u64 * row_bytes,
            });
        }
        tail.claimed += groups;
        tail.res.merge(res);
        let (keys, rest) = std::mem::take(&mut tail.keys).split_at_mut(groups);
        tail.keys = rest;
        let states = tail
            .states
            .iter_mut()
            .map(|col| {
                let (head, rest) = std::mem::take(col).split_at_mut(groups);
                *col = rest;
                head
            })
            .collect();
        Ok(Claim { keys, states })
    }

    /// The rows claimed. The reservations that paid for them are
    /// released: the result is the caller's, outside the budget.
    pub(crate) fn close(self) -> usize {
        self.tail.into_inner().claimed
    }
}

/// The result of one aggregation: one row per group, in unspecified order
/// (the paper's operator, like any parallel hash aggregation, does not
/// define an output order).
#[derive(Clone, Debug)]
pub struct GroupByOutput {
    /// Group keys.
    pub keys: Vec<u64>,
    /// Physical state columns (see [`hsa_agg::plan`] for the layout).
    pub states: Vec<Vec<u64>>,
    plan: Plan,
}

impl GroupByOutput {
    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.keys.len()
    }

    /// The lowered plan (physical column layout + finalizers).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Finalized value of requested aggregate `spec_ix` for group row `row`.
    pub fn value(&self, spec_ix: usize, row: usize) -> f64 {
        let states: Vec<u64> = self.states.iter().map(|c| c[row]).collect();
        self.plan.finalizers[spec_ix].eval(&states)
    }

    /// Finalized integer column for aggregate `spec_ix`, if it is exact
    /// (everything except AVG).
    pub fn column_u64(&self, spec_ix: usize) -> Option<Vec<u64>> {
        match self.plan.finalizers[spec_ix] {
            Finalizer::State(i) => Some(self.states[i].clone()),
            Finalizer::Ratio { .. } => None,
        }
    }

    /// Finalized float column for aggregate `spec_ix`.
    pub fn column_f64(&self, spec_ix: usize) -> Vec<f64> {
        (0..self.n_groups()).map(|r| self.value(spec_ix, r)).collect()
    }

    /// All groups as `(key, physical states)` rows sorted by key —
    /// convenience for tests and small examples.
    pub fn sorted_rows(&self) -> Vec<(u64, Vec<u64>)> {
        let mut rows: Vec<(u64, Vec<u64>)> = self
            .keys
            .iter()
            .enumerate()
            .map(|(r, &k)| (k, self.states.iter().map(|c| c[r]).collect()))
            .collect();
        rows.sort_unstable_by_key(|(k, _)| *k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_agg::{plan, AggSpec};
    use hsa_fault::MemoryBudget;

    /// Claims are disjoint and exact, sum to the result, and a claim that
    /// does not fit is a typed error that releases its reservation.
    #[test]
    fn claims_are_disjoint_exact_and_sum_to_the_result() {
        let budget = MemoryBudget::limited(1 << 20);
        let mut cols = OutColumns::zeroed(10, 2);
        let sink = cols.sink();
        let mut written = 0u64;
        for groups in [3, 0, 4, 2] {
            let res = budget.try_reserve(groups as u64 * 24).unwrap();
            let claim = sink.claim(groups, res).unwrap();
            assert_eq!(claim.keys.len(), groups);
            assert!(claim.states.iter().all(|c| c.len() == groups));
            for (i, k) in claim.keys.iter_mut().enumerate() {
                *k = written + i as u64;
            }
            for (c, col) in claim.states.into_iter().enumerate() {
                col.fill(c as u64 + 1);
            }
            written += groups as u64;
        }
        let res = budget.try_reserve(48).unwrap();
        let e = sink.claim(2, res).err();
        let want = AggError::BudgetExceeded { requested: 48, limit: 240, reserved: 216 };
        assert_eq!(e, Some(want), "one row left");
        assert_eq!(budget.outstanding(), 216, "the refused claim released its reservation");
        let claimed = sink.close();
        assert_eq!((claimed, budget.outstanding()), (9, 0));
        let out = cols.into_output(claimed, plan(&[AggSpec::sum(0), AggSpec::count()]));
        assert_eq!(out.keys, (0..9).collect::<Vec<_>>(), "each row written once, in claim order");
        assert_eq!(out.states, [vec![1; 9], vec![2; 9]]);
        for col in std::iter::once(&out.keys).chain(&out.states) {
            assert_eq!(col.capacity(), 9, "the result is sized exactly");
        }
    }

    /// Claims from many threads at once never overlap.
    #[test]
    fn concurrent_claims_partition_the_result() {
        let mut cols = OutColumns::zeroed(4_000, 1);
        let sink = cols.sink();
        std::thread::scope(|t| {
            for id in 1..=4u64 {
                let sink = &sink;
                t.spawn(move || {
                    for _ in 0..100 {
                        let mut claim = sink.claim(10, Reservation::empty()).unwrap();
                        assert!(claim.keys.iter().all(|&k| k == 0), "a row claimed twice");
                        claim.keys.fill(id);
                        claim.states[0].fill(id);
                    }
                });
            }
        });
        let claimed = sink.close();
        let out = cols.into_output(claimed, plan(&[AggSpec::count()]));
        assert_eq!(out.n_groups(), 4_000);
        for id in 1..=4 {
            assert_eq!(out.keys.iter().filter(|&&k| k == id).count(), 1_000);
        }
        assert_eq!(out.keys, out.states[0]);
    }

    #[test]
    fn finalization_helpers() {
        let mut cols = OutColumns::zeroed(1, 2);
        // states: sum, count → specs: avg(0), count()
        let sink = cols.sink();
        let mut claim = sink.claim(1, Reservation::empty()).unwrap();
        claim.keys[0] = 7;
        (claim.states[0][0], claim.states[1][0]) = (10, 4);
        let claimed = sink.close();
        let out = cols.into_output(claimed, plan(&[AggSpec::avg(0), AggSpec::count()]));
        assert_eq!(out.value(0, 0), 2.5);
        assert_eq!(out.column_u64(0), None);
        assert_eq!(out.column_u64(1), Some(vec![4]));
        assert_eq!(out.column_f64(0), vec![2.5]);
    }
}
