//! Uniform access to the rows a routine processes.
//!
//! The first pass reads borrowed input column slices; every later pass
//! reads owned [`Run`]s backed by chunked vectors. [`RunView`] hides the
//! difference and exposes *maximal contiguous blocks* aligned across the
//! key column and all state columns, so the kernels always run tight loops
//! over plain slices.

use hsa_columnar::Run;

/// A view over the rows of one run (borrowed input or owned intermediate).
pub(crate) enum RunView<'a> {
    /// Borrowed input: key slice plus one value slice per physical state
    /// column (for COUNT columns over raw input the key slice is aliased —
    /// the value is ignored). `aggregated` is false for raw query input
    /// and true when merging pre-aggregated partials.
    Borrowed {
        /// Grouping keys.
        keys: &'a [u64],
        /// One value slice per physical state column, all `keys.len()` long.
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

    /// Number of state columns.
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

    /// Contiguous key slice starting at `row` (up to a chunk boundary).
    pub(crate) fn key_tail(&self, row: usize) -> &[u64] {
        match self {
            RunView::Borrowed { keys, .. } => &keys[row.min(keys.len())..],
            RunView::Owned(r) => r.keys.tail_slice(row),
        }
    }

    /// Contiguous slice of state column `i` starting at `row`.
    pub(crate) fn col_tail(&self, i: usize, row: usize) -> &[u64] {
        match self {
            RunView::Borrowed { cols, .. } => {
                let c = cols[i];
                &c[row.min(c.len())..]
            }
            RunView::Owned(r) => r.cols[i].tail_slice(row),
        }
    }

    /// Length of the largest block starting at `row` that is contiguous in
    /// the key column *and* in every state column.
    pub(crate) fn aligned_block_len(&self, row: usize, n_cols: usize) -> usize {
        let mut len = self.key_tail(row).len();
        for i in 0..n_cols {
            len = len.min(self.col_tail(i, row).len());
        }
        len
    }

    /// Iterator over the key column's contiguous slices from `row`.
    pub(crate) fn key_slices(&self, row: usize) -> Box<dyn Iterator<Item = &[u64]> + '_> {
        match self {
            RunView::Borrowed { keys, .. } => {
                Box::new(std::iter::once(&keys[row.min(keys.len())..]).filter(|s| !s.is_empty()))
            }
            RunView::Owned(r) => Box::new(r.keys.slices_from(row)),
        }
    }

    /// Iterator over state column `i`'s contiguous slices from `row`.
    pub(crate) fn col_slices(&self, i: usize, row: usize) -> Box<dyn Iterator<Item = &[u64]> + '_> {
        match self {
            RunView::Borrowed { cols, .. } => {
                let c = cols[i];
                Box::new(std::iter::once(&c[row.min(c.len())..]).filter(|s| !s.is_empty()))
            }
            RunView::Owned(r) => Box::new(r.cols[i].slices_from(row)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_columnar::ChunkedVec;

    fn owned_run(n: u64, chunk: usize) -> Run {
        let mut keys = ChunkedVec::with_chunk_len(chunk);
        let mut col = ChunkedVec::with_chunk_len(chunk);
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
        assert_eq!(v.col_tail(0, 2), &[7]);
        assert_eq!(v.aligned_block_len(0, 1), 3);
        assert_eq!(v.key_slices(3).count(), 0);
    }

    #[test]
    fn owned_view_blocks_follow_chunks() {
        let v = RunView::Owned(owned_run(10, 4));
        assert!(v.aggregated());
        assert_eq!(v.aligned_block_len(0, 1), 4);
        assert_eq!(v.aligned_block_len(3, 1), 1);
        assert_eq!(v.aligned_block_len(8, 1), 2);
        let all: Vec<u64> = v.key_slices(0).flatten().copied().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        let col: Vec<u64> = v.col_slices(0, 5).flatten().copied().collect();
        assert_eq!(col, (5..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn walking_aligned_blocks_covers_all_rows() {
        let v = RunView::Owned(owned_run(23, 5));
        let mut row = 0;
        let mut seen = Vec::new();
        while row < v.len() {
            let len = v.aligned_block_len(row, 1);
            assert!(len > 0);
            seen.extend_from_slice(&v.key_tail(row)[..len]);
            row += len;
        }
        assert_eq!(seen, (0..23).collect::<Vec<u64>>());
    }
}
