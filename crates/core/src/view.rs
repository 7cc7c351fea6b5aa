//! Uniform access to the rows a routine processes.
//!
//! The first pass reads borrowed input column slices; every later pass
//! reads owned [`Run`]s backed by chunked vectors. [`RunView`] hides the
//! difference and exposes *maximal contiguous blocks* aligned across the
//! key column and all columns travelling with it, so the kernels always
//! run tight loops over plain slices.
//!
//! Which columns travel depends on the kind of rows ([`StateCols`]):
//! partial aggregates carry one column per state, raw rows carry each
//! input the query reads once — partitioning moves what carries
//! information, not one copy per state that will be derived from it.

use hsa_agg::{Plan, StateOp};
use hsa_columnar::Run;

/// The query's state columns and where each finds its values in a run,
/// derived once per stream from the lowered plan.
pub(crate) struct StateCols {
    /// The state operations, in kernel order.
    pub(crate) ops: Vec<StateOp>,
    /// The caller's input columns the query reads, each once, in order of
    /// first use: column `j` of a raw run is input `raw_inputs[j]`.
    raw_inputs: Vec<usize>,
    /// Per state column, the raw-run column that feeds it; `None` for
    /// COUNT, which reads no input.
    raw_source: Vec<Option<usize>>,
}

impl StateCols {
    pub(crate) fn of(plan: &Plan) -> Self {
        let mut raw_inputs = Vec::new();
        let mut column_of = |input| {
            raw_inputs.iter().position(|&seen| seen == input).unwrap_or_else(|| {
                raw_inputs.push(input);
                raw_inputs.len() - 1
            })
        };
        let raw_source = plan.cols.iter().map(|c| c.input.map(&mut column_of)).collect();
        Self { ops: plan.cols.iter().map(|c| c.op).collect(), raw_inputs, raw_source }
    }

    /// Number of state columns — the columns of an aggregated run.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// The caller's input columns a raw run carries, in run-column order.
    pub(crate) fn raw_inputs(&self) -> &[usize] {
        &self.raw_inputs
    }

    /// Columns travelling with the keys of a run of the given kind.
    pub(crate) fn run_cols(&self, aggregated: bool) -> usize {
        if aggregated {
            self.ops.len()
        } else {
            self.raw_inputs.len()
        }
    }
}

/// A view over the rows of one run (borrowed input or owned intermediate).
pub(crate) enum RunView<'a> {
    /// Borrowed input: key slice plus the value slices travelling with it
    /// — the query's distinct inputs for raw rows (`aggregated` false),
    /// one per state column when merging pre-aggregated partials.
    Borrowed {
        /// Grouping keys.
        keys: &'a [u64],
        /// The travelling columns, all `keys.len()` long.
        cols: Vec<&'a [u64]>,
        /// Whether the rows are partial aggregates.
        aggregated: bool,
    },
    /// An intermediate run produced by a previous pass.
    Owned(Run),
}

impl RunView<'_> {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            RunView::Borrowed { keys, .. } => keys.len(),
            RunView::Owned(r) => r.len(),
        }
    }

    /// Number of columns travelling with the keys.
    pub(crate) fn n_cols(&self) -> usize {
        match self {
            RunView::Borrowed { cols, .. } => cols.len(),
            RunView::Owned(r) => r.cols.len(),
        }
    }

    /// Whether rows are partial aggregates (super-aggregate needed).
    pub(crate) fn aggregated(&self) -> bool {
        match self {
            RunView::Borrowed { aggregated, .. } => *aggregated,
            RunView::Owned(r) => r.aggregated,
        }
    }

    /// Contiguous slice starting at `row` (up to a chunk boundary) of
    /// travelling column `col`, or of the key column for `None`.
    fn tail(&self, col: Option<usize>, row: usize) -> &[u64] {
        match self {
            RunView::Borrowed { keys, cols, .. } => {
                let c = col.map_or(*keys, |j| cols[j]);
                &c[row.min(c.len())..]
            }
            RunView::Owned(r) => col.map_or(&r.keys, |j| &r.cols[j]).tail_slice(row),
        }
    }

    /// Contiguous key slice starting at `row`.
    pub(crate) fn key_tail(&self, row: usize) -> &[u64] {
        self.tail(None, row)
    }

    /// Contiguous slice, starting at `row`, of the values that feed state
    /// column `i`: its partial states in an aggregated run, its input
    /// column in a raw one — where COUNT, reading none, is shown the keys
    /// it ignores.
    pub(crate) fn state_tail(&self, states: &StateCols, i: usize, row: usize) -> &[u64] {
        self.tail(if self.aggregated() { Some(i) } else { states.raw_source[i] }, row)
    }

    /// Length of the largest block starting at `row` that is contiguous in
    /// the key column *and* in every travelling column.
    pub(crate) fn aligned_block_len(&self, row: usize) -> usize {
        (0..self.n_cols())
            .fold(self.tail(None, row).len(), |n, j| n.min(self.tail(Some(j), row).len()))
    }

    /// The contiguous slices from `row` on of travelling column `col`, or
    /// of the key column for `None`.
    pub(crate) fn slices(
        &self,
        col: Option<usize>,
        mut row: usize,
    ) -> impl Iterator<Item = &[u64]> {
        std::iter::from_fn(move || {
            let s = self.tail(col, row);
            row += s.len();
            (!s.is_empty()).then_some(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_agg::{plan, AggSpec};
    use hsa_columnar::ChunkedVec;

    /// `0..n` with a column of doubles, pushed one row at a time: chunks
    /// of 64, 64, 128, … rows.
    fn owned_run(n: u64) -> Run {
        let mut keys = ChunkedVec::new();
        let mut col = ChunkedVec::new();
        for i in 0..n {
            keys.push(i);
            col.push(i * 2);
        }
        Run { keys, cols: vec![col], aggregated: true, source_rows: n, level: 1 }
    }

    #[test]
    fn borrowed_view_basics() {
        let keys = [1u64, 2, 3];
        let vals = [9u64, 8, 7];
        let v = RunView::Borrowed { keys: &keys, cols: vec![&vals], aggregated: false };
        assert_eq!(v.len(), 3);
        assert!(!v.aggregated());
        assert_eq!(v.key_tail(1), &[2, 3]);
        assert_eq!(v.tail(Some(0), 2), &[7]);
        assert_eq!(v.aligned_block_len(0), 3);
        assert_eq!(v.slices(None, 3).count(), 0);
    }

    #[test]
    fn raw_rows_carry_each_input_once_and_states_resolve_through_the_layout() {
        // SUM(b), COUNT(*), MIN(a), AVG(b), MAX(a): five specs, four
        // states, two inputs — `b` first.
        let specs =
            [AggSpec::sum(1), AggSpec::count(), AggSpec::min(0), AggSpec::avg(1), AggSpec::max(0)];
        let states = StateCols::of(&plan(&specs));
        assert_eq!(states.ops, [StateOp::Sum, StateOp::Count, StateOp::Min, StateOp::Max]);
        assert_eq!(states.raw_inputs(), [1, 0]);
        let keys = [1u64, 2, 3];
        let (a, b) = ([10u64, 20, 30], [7u64, 8, 9]);
        let raw = RunView::Borrowed { keys: &keys, cols: vec![&b, &a], aggregated: false };
        let fed: Vec<&[u64]> = (0..states.len()).map(|i| raw.state_tail(&states, i, 1)).collect();
        assert_eq!(fed, [&b[1..], &keys[1..], &a[1..], &a[1..]]);
        // Partial aggregates travel one column per state.
        let partial = [[1u64; 3], [2; 3], [3; 3], [4; 3]];
        let cols = partial.iter().map(|c| &c[..]).collect();
        let merged = RunView::Borrowed { keys: &keys, cols, aggregated: true };
        for (i, col) in partial.iter().enumerate() {
            assert_eq!(merged.state_tail(&states, i, 0), col);
        }
        // COUNT(*) alone reads nothing; DISTINCT has no state at all.
        let count = StateCols::of(&plan(&[AggSpec::count()]));
        assert_eq!((count.len(), count.raw_inputs().len()), (1, 0));
        assert_eq!(StateCols::of(&plan(&[])).len(), 0);
    }

    #[test]
    fn owned_view_blocks_follow_chunks() {
        let v = RunView::Owned(owned_run(200));
        assert!(v.aggregated());
        assert_eq!(v.aligned_block_len(0), 64);
        assert_eq!(v.aligned_block_len(63), 1);
        assert_eq!(v.aligned_block_len(128), 72);
        let all: Vec<u64> = v.slices(None, 0).flatten().copied().collect();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
        let col: Vec<u64> = v.slices(Some(0), 130).flatten().copied().collect();
        assert_eq!(col, (130..200).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn walking_aligned_blocks_covers_all_rows() {
        let v = RunView::Owned(owned_run(300));
        let mut row = 0;
        let mut seen = Vec::new();
        while row < v.len() {
            let len = v.aligned_block_len(row);
            assert!(len > 0);
            seen.extend_from_slice(&v.key_tail(row)[..len]);
            row += len;
        }
        assert_eq!(seen, (0..300).collect::<Vec<u64>>());
    }
}
