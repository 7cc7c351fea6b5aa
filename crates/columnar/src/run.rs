//! Runs and buckets — the intermediate currency of the framework (§3.1).
//!
//! "Both routines produce partitions in form of 'runs'": a run is a batch of
//! rows that share a hash-digit prefix. A bucket collects all runs with the
//! same prefix; Algorithm 2 recurses bucket by bucket until each bucket is
//! a single, fully aggregated run.

use crate::chunked::ChunkedVec;

/// A run: a key column plus the columns that travel with it.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Grouping keys (the paper's rows are 64-bit integers).
    pub keys: ChunkedVec,
    /// The columns travelling with the keys. For raw input runs these are
    /// the aggregate *input* columns the query reads, each once — however
    /// many states one input feeds, and none for `COUNT(*)`; once a run
    /// has passed through `HASHING` they are materialized aggregate
    /// states (one or two per aggregate function, e.g. AVG carries SUM
    /// and COUNT). The operator knows which of the two by `aggregated`.
    pub cols: Vec<ChunkedVec>,
    /// `true` if the rows are partial aggregates, in which case combining
    /// them requires the super-aggregate function (§3.1: "the
    /// super-aggregate function of COUNT is SUM").
    pub aggregated: bool,
    /// Number of *original input* rows this run represents. Hashing can
    /// shrink a run (early aggregation) but `source_rows` is conserved,
    /// which is what lets tests assert no row is ever lost.
    pub source_rows: u64,
    /// Radix level: how many 8-bit hash digits all rows of this run share.
    pub level: u32,
}

impl Run {
    /// An empty run at the given level with `n_cols` travelling columns.
    pub fn empty(level: u32, n_cols: usize, aggregated: bool) -> Self {
        Self {
            keys: ChunkedVec::new(),
            cols: (0..n_cols).map(|_| ChunkedVec::new()).collect(),
            aggregated,
            source_rows: 0,
            level,
        }
    }

    /// Build a raw (non-aggregated) level-0 input run from slices.
    ///
    /// All column slices must have the same length as `keys`.
    pub fn from_rows(keys: &[u64], cols: &[&[u64]]) -> Self {
        for (i, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), keys.len(), "column {i} length mismatch");
        }
        Self {
            keys: ChunkedVec::from_slice(keys),
            cols: cols.iter().map(|c| ChunkedVec::from_slice(c)).collect(),
            aggregated: false,
            source_rows: keys.len() as u64,
            level: 0,
        }
    }

    /// Number of rows currently in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the run holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of columns travelling with the keys.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Heap bytes this run holds across its key and travelling columns
    /// (chunk capacities — what the operator's memory budget accounts).
    pub fn mem_bytes(&self) -> u64 {
        self.keys.mem_bytes() + self.cols.iter().map(ChunkedVec::mem_bytes).sum::<u64>()
    }

    /// Internal consistency: every column as long as the key column.
    pub fn check_consistent(&self) -> Result<(), String> {
        for (i, c) in self.cols.iter().enumerate() {
            if c.len() != self.keys.len() {
                return Err(format!(
                    "column {i} has {} rows, keys have {}",
                    c.len(),
                    self.keys.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_builds_consistent_run() {
        let r = Run::from_rows(&[1, 2, 3], &[&[10, 20, 30], &[5, 5, 5]]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.n_cols(), 2);
        assert_eq!(r.source_rows, 3);
        assert!(!r.aggregated);
        assert!(r.check_consistent().is_ok());
    }

    #[test]
    #[should_panic(expected = "column 1 length mismatch")]
    fn from_rows_rejects_ragged_columns() {
        let _ = Run::from_rows(&[1, 2], &[&[1, 2], &[1]]);
    }

    #[test]
    fn check_consistent_detects_ragged() {
        let mut r = Run::from_rows(&[1, 2], &[&[1, 2]]);
        r.cols[0].push(3);
        assert!(r.check_consistent().is_err());
    }

    #[test]
    fn empty_run_shape() {
        let r = Run::empty(2, 3, true);
        assert!(r.is_empty());
        assert_eq!(r.level, 2);
        assert_eq!(r.n_cols(), 3);
        assert!(r.aggregated);
    }
}
