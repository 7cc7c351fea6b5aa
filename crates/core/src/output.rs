//! The operator's result and the shared collector it is assembled in.

use hsa_agg::{Finalizer, Plan};
use hsa_columnar::{ChunkedVec, DepotAccount};
use hsa_fault::Reservation;
use hsa_tasks::sync::Mutex;

/// Shared sink for final groups. Leaf tasks append whole blocks under one
/// short lock — coarse enough to be negligible (§3.2).
///
/// The groups are assembled in chunks lent by the depot, like every run,
/// so the output never doubles a vector under the lock; the finished
/// result is copied once into vectors of exactly its length
/// ([`Collector::into_output`]) and the chunks go back.
///
/// The collector holds the budget reservations backing its output chunks
/// until the output is handed to the caller. Unlike intermediate runs,
/// final output blocks are never spilled: they are the caller's result,
/// so a denied output reservation stays a hard
/// `AggError::BudgetExceeded` even when a spill directory is configured.
/// One collector spans all chunks of a streaming ingestion
/// ([`crate::AggStream`]) — it lives in the driver context, not in any
/// single scope.
pub(crate) struct Collector {
    inner: Mutex<RawOut>,
}

/// The output under construction, as [`Collector::push_blocks`] lends it.
pub(crate) struct RawOut {
    keys: ChunkedVec,
    states: Vec<ChunkedVec>,
    res: Reservation,
}

impl RawOut {
    /// Append one block of final groups.
    pub(crate) fn push(&mut self, keys: &[u64], cols: &[Vec<u64>]) {
        self.keys.extend_from_slice(keys);
        debug_assert_eq!(cols.len(), self.states.len());
        for (dst, src) in self.states.iter_mut().zip(cols) {
            dst.extend_from_slice(src);
        }
    }
}

impl Collector {
    /// An empty collector for `n_cols` state columns, its chunks lent
    /// through `depot`.
    pub(crate) fn new(n_cols: usize, depot: &DepotAccount) -> Self {
        Self {
            inner: Mutex::new(RawOut {
                keys: ChunkedVec::new_in(depot),
                states: (0..n_cols).map(|_| ChunkedVec::new_in(depot)).collect(),
                res: Reservation::empty(),
            }),
        }
    }

    /// Append the blocks of final groups `fill` pushes, all under one lock,
    /// folding in the reservation that paid for their memory: a sealing
    /// table yields a block per digit, and a lock for each is 256 round
    /// trips a table.
    pub(crate) fn push_blocks(&self, res: Reservation, fill: impl FnOnce(&mut RawOut)) {
        let mut g = self.inner.lock();
        fill(&mut g);
        g.res.merge(res);
    }

    /// The result in vectors of exactly its length; the chunks it was
    /// assembled in go back to the depot.
    pub(crate) fn into_output(self, plan: Plan) -> GroupByOutput {
        let RawOut { keys, states, mut res } = self.inner.into_inner();
        // One column at a time: each is copied, then its chunks go back
        // and its share of the reservations is released, so the copy
        // never holds more than one column twice. The copies belong to
        // the caller, outside the operator's budget.
        let mut exact = |column: ChunkedVec| {
            let copy = column.to_vec();
            let share = column.mem_bytes();
            drop(column);
            drop(res.take(share));
            copy
        };
        let keys = exact(keys);
        let states = states.into_iter().map(&mut exact).collect();
        GroupByOutput { keys, states, plan }
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

    #[test]
    fn collector_appends_blocks() {
        let c = Collector::new(2, &DepotAccount::default());
        c.push_blocks(Reservation::empty(), |out| {
            out.push(&[1, 2], &[vec![10, 20], vec![1, 1]]);
            out.push(&[3], &[vec![30], vec![1]]);
        });
        let out = c.into_output(plan(&[AggSpec::sum(0), AggSpec::count()]));
        assert_eq!(out.n_groups(), 3);
        for col in std::iter::once(&out.keys).chain(&out.states) {
            assert_eq!(col.capacity(), 3, "the result is sized exactly");
        }
        assert_eq!(out.sorted_rows()[2], (3, vec![30, 1]));
    }

    #[test]
    fn finalization_helpers() {
        let c = Collector::new(2, &DepotAccount::default());
        // states: sum, count → specs: avg(0), count()
        c.push_blocks(Reservation::empty(), |out| out.push(&[7], &[vec![10], vec![4]]));
        let out = c.into_output(plan(&[AggSpec::avg(0), AggSpec::count()]));
        assert_eq!(out.value(0, 0), 2.5);
        assert_eq!(out.column_u64(0), None);
        assert_eq!(out.column_u64(1), Some(vec![4]));
        assert_eq!(out.column_f64(0), vec![2.5]);
    }
}
