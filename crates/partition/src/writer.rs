//! The partition writer: `PARTITIONING`'s outputs, kept for as long as
//! their owner works.
//!
//! The paper's threads append to their *own* 256 two-level outputs for the
//! whole pass (§3.2), so a run's length is set by how much a thread
//! partitioned, not by how the input was cut into morsels. A
//! [`PartitionWriter`] is that state as one value: a set of
//! write-combining buffers and 256 output partitions for the key column
//! and for each state column. [`PartitionWriter::append`] routes another
//! batch of rows into them; [`PartitionWriter::drain`] hands the
//! partitions over and leaves the writer empty and reusable.
//!
//! Partially filled write-combining lines stay buffered between appends
//! and are flushed only by `drain`, so every column of a partition sees
//! the same sequence of line flushes and the chunk boundaries of its
//! columns coincide — row `i` of the key column and row `i` of every state
//! column are the same input row, in input order (§3.3).

use crate::kernels::partition_unrolled_into;
use crate::scatter::scatter_into;
use crate::swc::SwcBuffers;
use crate::{empty_parts, PartitionMetrics, Parts, LINE_U64S};
use hsa_columnar::ChunkedVec;
use hsa_hash::{Hasher64, FANOUT};

/// One column's write-combining lines and the partitions they flush into.
struct ColumnOut {
    bufs: SwcBuffers,
    parts: Parts,
}

/// Persistent outputs of `PARTITIONING` for rows of `1 + n_state_cols`
/// columns; see the module documentation.
pub struct PartitionWriter {
    /// `[0]` is the key column, `[1 + i]` state column `i`.
    cols: Vec<ColumnOut>,
    /// One radix digit per row of the append in progress (scratch).
    digits: Vec<u8>,
    rows: usize,
}

impl PartitionWriter {
    /// An empty writer for rows with `n_state_cols` state columns. This
    /// allocates the write-combining lines (16 KiB per column); the
    /// partitions allocate as rows arrive.
    pub fn new(n_state_cols: usize) -> Self {
        let cols = (0..1 + n_state_cols)
            .map(|_| ColumnOut { bufs: SwcBuffers::new(), parts: empty_parts() })
            .collect();
        Self { cols, digits: Vec::new(), rows: 0 }
    }

    /// Rows appended since the last drain.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if a drain would hand over nothing.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Heap bytes the writer holds: the write-combining lines, the digit
    /// scratch and the partitions' chunks (capacities, the quantity the
    /// operator's memory budget accounts).
    pub fn mem_bytes(&self) -> u64 {
        let lines = (self.cols.len() * FANOUT * LINE_U64S * 8) as u64;
        let chunks: u64 =
            self.cols.iter().flat_map(|c| &c.parts).map(ChunkedVec::mem_bytes).sum::<u64>();
        lines + self.digits.capacity() as u64 + chunks
    }

    /// Route the rows given as chunk slices into the partitions of radix
    /// digit `level`: the key pass hashes every key and records its digit,
    /// then `col_chunks(i)` is replayed through the same digits for each
    /// state column `i`.
    ///
    /// # Panics
    /// If a state column does not yield exactly as many values as there
    /// were keys.
    pub fn append<'a, H, K, C>(
        &mut self,
        hasher: H,
        level: u32,
        key_chunks: K,
        mut col_chunks: impl FnMut(usize) -> C,
    ) where
        H: Hasher64,
        K: Iterator<Item = &'a [u64]>,
        C: Iterator<Item = &'a [u64]>,
    {
        let Some((key_out, state_outs)) = self.cols.split_first_mut() else { return };
        let digits = &mut self.digits;
        digits.clear();
        let mut rows = 0;
        for chunk in key_chunks {
            rows += chunk.len();
            if state_outs.is_empty() {
                // DISTINCT-style rows: nothing to replay, skip the mapping.
                partition_unrolled_into(
                    chunk,
                    hasher,
                    level,
                    &mut key_out.bufs,
                    &mut key_out.parts,
                    |_| {},
                );
            } else {
                partition_unrolled_into(
                    chunk,
                    hasher,
                    level,
                    &mut key_out.bufs,
                    &mut key_out.parts,
                    |d| digits.push(d),
                );
            }
        }
        for (i, out) in state_outs.iter_mut().enumerate() {
            let mut offset = 0;
            for chunk in col_chunks(i) {
                let end = offset + chunk.len();
                assert!(end <= rows, "state column {i} is longer than the key column");
                scatter_into(&digits[offset..end], chunk, &mut out.bufs, &mut out.parts);
                offset = end;
            }
            assert_eq!(offset, rows, "state column {i} is shorter than the key column");
        }
        self.rows += rows;
    }

    /// Hand over every non-empty partition as `emit(digit, keys, cols)`,
    /// in digit order, flushing the partially filled write-combining
    /// lines first. The writer is empty afterwards and keeps its lines.
    pub fn drain(&mut self, mut emit: impl FnMut(usize, ChunkedVec<u64>, Vec<ChunkedVec<u64>>)) {
        for col in &mut self.cols {
            col.bufs.drain(&mut col.parts);
        }
        self.rows = 0;
        let Some((key_out, state_outs)) = self.cols.split_first_mut() else { return };
        for (digit, keys) in key_out.parts.iter_mut().enumerate() {
            if !keys.is_empty() {
                let cols = state_outs.iter_mut().map(|c| std::mem::take(&mut c.parts[digit]));
                emit(digit, std::mem::take(keys), cols.collect());
            }
        }
    }

    /// Write-combining flush traffic since the previous call. Values still
    /// sitting in partial lines are counted by the drain that moves them.
    pub fn take_metrics(&mut self) -> PartitionMetrics {
        let mut m = PartitionMetrics::default();
        for col in &mut self.cols {
            col.bufs.take_metrics_into(&mut m);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::pseudo_random_keys;
    use crate::{partition_keys_mapped, scatter_by_digits};
    use hsa_hash::Murmur2;

    /// Everything a writer hands over, as `(digit, keys, cols)` rows.
    fn drained(w: &mut PartitionWriter) -> Vec<(usize, Vec<u64>, Vec<Vec<u64>>)> {
        let mut out = Vec::new();
        w.drain(|d, keys, cols| {
            out.push((d, keys.to_vec(), cols.iter().map(ChunkedVec::to_vec).collect()))
        });
        out
    }

    /// The one-shot kernels over the same rows, in the same shape.
    fn one_shot(keys: &[u64], cols: &[&[u64]]) -> Vec<(usize, Vec<u64>, Vec<Vec<u64>>)> {
        let mut mapping = Vec::new();
        let kp = partition_keys_mapped([keys].into_iter(), Murmur2::default(), 0, &mut mapping);
        let cps: Vec<Parts> =
            cols.iter().map(|c| scatter_by_digits(&mapping, [*c].into_iter())).collect();
        (0..FANOUT)
            .filter(|&d| !kp[d].is_empty())
            .map(|d| (d, kp[d].to_vec(), cps.iter().map(|cp| cp[d].to_vec()).collect()))
            .collect()
    }

    #[test]
    fn uneven_appends_equal_the_one_shot_kernels() {
        let keys = pseudo_random_keys(3_000, 21);
        let v0: Vec<u64> = keys.iter().map(|k| k ^ 0xabcd).collect();
        let v1: Vec<u64> = (0..keys.len() as u64).collect();
        let mut w = PartitionWriter::new(2);
        // Pieces that are empty, shorter than a line, and not a multiple
        // of one; the last also arrives as several chunk slices.
        let cuts = [0usize, 0, 1, 6, 13, 14, 500, 1_777, 3_000];
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            w.append(Murmur2::default(), 0, keys[a..b].chunks(97), |i| {
                [&v0, &v1][i][a..b].chunks(97)
            });
        }
        assert_eq!(w.len(), keys.len());
        assert_eq!(drained(&mut w), one_shot(&keys, &[&v0, &v1]));
        assert!(w.is_empty());
    }

    #[test]
    fn a_drain_between_appends_keeps_rows_aligned() {
        let keys = pseudo_random_keys(2_000, 5);
        let vals: Vec<u64> = keys.iter().map(|k| !k).collect();
        let mut w = PartitionWriter::new(1);
        let mut seen = 0;
        for range in [0..700usize, 700..701, 701..2_000] {
            w.append(Murmur2::default(), 1, [&keys[range.clone()]].into_iter(), |_| {
                [&vals[range.clone()]].into_iter()
            });
            // Each hand-over starts from empty lines: it holds exactly the
            // rows appended since the previous one, values beside keys.
            let mut rows = 0;
            w.drain(|d, ks, cols| {
                assert_eq!(cols.len(), 1);
                assert_eq!(ks.len(), cols[0].len());
                let chunk_lens =
                    |c: &ChunkedVec<u64>| c.chunks().map(<[u64]>::len).collect::<Vec<_>>();
                assert_eq!(chunk_lens(&ks), chunk_lens(&cols[0]), "chunks must coincide");
                for (k, v) in ks.iter().zip(cols[0].iter()) {
                    assert_eq!(hsa_hash::digit(Murmur2::default().hash_u64(k), 1), d);
                    assert_eq!(v, !k);
                }
                rows += ks.len();
            });
            assert_eq!(rows, range.len());
            seen += rows;
        }
        assert_eq!(seen, keys.len());
    }

    #[test]
    fn key_only_rows_need_no_mapping() {
        let keys = pseudo_random_keys(1_000, 9);
        let mut w = PartitionWriter::new(0);
        w.append(Murmur2::default(), 0, keys.chunks(333), |_| std::iter::empty());
        assert_eq!(w.digits.capacity(), 0);
        assert_eq!(drained(&mut w), one_shot(&keys, &[]));
    }

    #[test]
    fn metrics_count_every_value_once() {
        let keys = pseudo_random_keys(1_500, 3);
        let mut w = PartitionWriter::new(1);
        w.append(Murmur2::default(), 0, [keys.as_slice()].into_iter(), |_| {
            [keys.as_slice()].into_iter()
        });
        let appended = w.take_metrics();
        assert_eq!(appended.swc_flush_bytes, appended.swc_flushes * 64, "full lines only so far");
        w.drain(|_, _, _| {});
        let residual = w.take_metrics();
        assert_eq!(residual.swc_flushes, 0);
        assert_eq!(appended.swc_flush_bytes + residual.swc_flush_bytes, 2 * 1_500 * 8);
        assert_eq!(
            w.take_metrics(),
            PartitionMetrics { streaming: appended.streaming, ..Default::default() }
        );
    }

    #[test]
    fn mem_bytes_follows_the_chunks() {
        let mut w = PartitionWriter::new(1);
        let lines = 2 * FANOUT as u64 * 64;
        assert_eq!(w.mem_bytes(), lines);
        let keys = vec![7u64; 100];
        w.append(Murmur2::default(), 0, [keys.as_slice()].into_iter(), |_| {
            [keys.as_slice()].into_iter()
        });
        // One digit, 96 values flushed per column: chunks of 64 + 64.
        assert_eq!(w.mem_bytes(), lines + w.digits.capacity() as u64 + 2 * 128 * 8);
        let mut handed = 0;
        w.drain(|_, ks, cols| handed += ks.mem_bytes() + cols[0].mem_bytes());
        assert_eq!(handed, 2 * 128 * 8);
        assert_eq!(w.mem_bytes(), lines + w.digits.capacity() as u64);
    }

    #[test]
    #[should_panic(expected = "state column 0 is shorter than the key column")]
    fn a_short_state_column_panics() {
        let keys = [1u64, 2, 3];
        let mut w = PartitionWriter::new(1);
        w.append(Murmur2::default(), 0, [&keys[..]].into_iter(), |_| [&keys[..2]].into_iter());
    }
}
