//! The partition writer: `PARTITIONING`'s outputs, kept for as long as
//! their owner works.
//!
//! The paper's threads append to their *own* 256 two-level outputs for the
//! whole pass (§3.2), so a run's length is set by how much a thread
//! partitioned, not by how the input was cut into morsels. A
//! [`PartitionWriter`] is that state as one value: 256 output partitions
//! for the key column and for each column that travels with it.
//! [`PartitionWriter::append`] routes another batch of rows into them;
//! [`PartitionWriter::drain`] hands the partitions over and leaves the
//! writer empty and reusable.
//!
//! Values are appended directly: every column owns the *open tail chunk*
//! of each of its partitions as a plain `Vec` whose header is the write
//! cursor, so a value costs one capacity compare and one store. A full
//! tail joins its partition's [`ChunkedVec`] as a whole chunk and the next
//! is sized by the same 64 → 4096 ramp for every column, so the chunk
//! boundaries of a partition's columns coincide — row `i` of the key
//! column and of every other column are the same input row (§3.3). The
//! one-shot kernels run the same loops over a fresh [`ColumnOut`].

use crate::kernels::hash_ahead;
use crate::Parts;
use hsa_columnar::{ChunkedVec, DepotAccount};
use hsa_hash::{Hasher64, FANOUT};

/// One column's 256 outputs: per partition the chunks already full, and
/// the open tail chunk the next value is stored into.
pub(crate) struct ColumnOut {
    /// Never allocated and empty: a tail with capacity holds a value.
    tails: Box<[Vec<u64>; FANOUT]>,
    parts: Parts,
}

impl ColumnOut {
    /// Empty outputs whose chunks are lent through `account`.
    pub(crate) fn new(account: &DepotAccount) -> Self {
        let parts = (0..FANOUT).map(|_| ChunkedVec::new_in(account)).collect();
        Self { tails: Box::new(std::array::from_fn(|_| Vec::new())), parts }
    }

    /// Append `value` to partition `d`.
    #[inline(always)]
    fn push(&mut self, d: usize, value: u64) {
        let tail = &mut self.tails[d];
        if tail.len() == tail.capacity() {
            Self::roll(tail, &mut self.parts[d]);
        }
        tail.push(value);
    }

    /// The full (or not yet allocated) `tail` joins `part` as a whole
    /// chunk; the next one is lent at the capacity `part` would have
    /// grown to.
    #[cold]
    #[inline(never)]
    fn roll(tail: &mut Vec<u64>, part: &mut ChunkedVec) {
        part.roll(tail);
    }

    /// Partition `keys` by the radix digit `level` of their hashes, showing
    /// every row's digit to `observe_digit` in input order (the mapping
    /// vector of the column-wise model, without a second hash pass).
    #[inline]
    pub(crate) fn partition<H: Hasher64>(
        &mut self,
        keys: &[u64],
        hasher: H,
        level: u32,
        mut observe_digit: impl FnMut(u8),
    ) {
        hash_ahead(keys, hasher, level, |d, key| {
            observe_digit(d as u8);
            self.push(d, key);
        });
    }

    /// Route `values` by their recorded `digits` (one per value): each
    /// lands at the offset of its key, so no per-row offsets are stored.
    #[inline]
    pub(crate) fn scatter(&mut self, digits: &[u8], values: &[u64]) {
        debug_assert_eq!(digits.len(), values.len());
        for (&d, &v) in digits.iter().zip(values) {
            self.push(d as usize, v);
        }
    }

    /// Close the open tails: every value sits in the partitions afterwards.
    pub(crate) fn close(&mut self) -> &mut Parts {
        for (tail, part) in self.tails.iter_mut().zip(&mut self.parts) {
            part.adopt(std::mem::take(tail));
        }
        &mut self.parts
    }

    /// Partition `d` with its tail closed, leaving it empty: the next
    /// value starts a new chunk at the bottom of the ramp, as in every
    /// other column taken at the same digit.
    fn take(&mut self, d: usize) -> ChunkedVec {
        let part = &mut self.parts[d];
        part.adopt(std::mem::take(&mut self.tails[d]));
        part.take_all()
    }

    /// True if partition `d` holds no value (then neither has it an open
    /// tail: one is lent only to store a value).
    fn is_empty_at(&self, d: usize) -> bool {
        self.tails[d].is_empty() && self.parts[d].is_empty()
    }

    /// Heap bytes partition `d` holds: full chunks and open tail.
    fn digit_bytes(&self, d: usize) -> u64 {
        self.tails[d].capacity() as u64 * 8 + self.parts[d].mem_bytes()
    }

    /// Heap bytes held: full chunks and open tails, at capacity.
    fn mem_bytes(&self) -> u64 {
        (0..FANOUT).map(|d| self.digit_bytes(d)).sum()
    }
}

/// Open tails are lent chunks too: a writer dropped with rows in it (a
/// failed query) gives them back with its partitions.
impl Drop for ColumnOut {
    fn drop(&mut self) {
        self.close();
    }
}

/// Persistent outputs of `PARTITIONING` for rows of a key column and
/// `n_cols` columns travelling with it; see the module documentation.
pub struct PartitionWriter {
    /// `[0]` is the key column, `[1 + i]` travelling column `i`.
    cols: Vec<ColumnOut>,
    /// One radix digit per row of the append in progress (scratch).
    digits: Vec<u8>,
    rows: usize,
}

impl PartitionWriter {
    /// An empty writer for rows with `n_cols` columns beside the key,
    /// its chunks lent through `account`. It holds no memory worth
    /// accounting; chunks are lent as rows arrive.
    pub fn new(n_cols: usize, account: &DepotAccount) -> Self {
        Self {
            cols: (0..1 + n_cols).map(|_| ColumnOut::new(account)).collect(),
            digits: Vec::new(),
            rows: 0,
        }
    }

    /// Columns travelling with the key column.
    pub fn n_cols(&self) -> usize {
        self.cols.len() - 1
    }

    /// Rows appended since the last drain.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if a drain would hand over nothing.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Heap bytes the writer holds: the partitions' chunks, open tails
    /// included, and the digit scratch (capacities, the quantity the
    /// operator's memory budget accounts). A drain hands over exactly
    /// the chunk bytes: it allocates nothing.
    pub fn mem_bytes(&self) -> u64 {
        self.digits.capacity() as u64 + self.cols.iter().map(ColumnOut::mem_bytes).sum::<u64>()
    }

    /// Route the rows given as chunk slices into the partitions of radix
    /// digit `level`: the key pass hashes every key and records its digit,
    /// then `col_chunks(i)` is replayed through the same digits for each
    /// travelling column `i`.
    ///
    /// # Panics
    /// If a column does not yield exactly as many values as there were
    /// keys.
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
        let Some((key_out, col_outs)) = self.cols.split_first_mut() else { return };
        let digits = &mut self.digits;
        digits.clear();
        let mut rows = 0;
        for chunk in key_chunks {
            rows += chunk.len();
            if col_outs.is_empty() {
                // Key-only rows: nothing to replay, skip the mapping.
                key_out.partition(chunk, hasher, level, |_| {});
            } else {
                key_out.partition(chunk, hasher, level, |d| digits.push(d));
            }
        }
        for (i, out) in col_outs.iter_mut().enumerate() {
            let mut offset = 0;
            for chunk in col_chunks(i) {
                let end = offset + chunk.len();
                assert!(end <= rows, "column {i} is longer than the key column");
                out.scatter(&digits[offset..end], chunk);
                offset = end;
            }
            assert_eq!(offset, rows, "column {i} is shorter than the key column");
        }
        self.rows += rows;
    }

    /// Heap bytes partition `digit` holds across all columns: what
    /// draining it alone would hand over.
    pub fn digit_mem_bytes(&self, digit: usize) -> u64 {
        self.cols.iter().map(|c| c.digit_bytes(digit)).sum()
    }

    /// Hand over every non-empty partition as `emit(digit, keys, cols)`,
    /// in digit order. The writer is empty afterwards.
    pub fn drain(&mut self, emit: impl FnMut(usize, ChunkedVec, Vec<ChunkedVec>)) {
        self.drain_where(|_| true, emit);
    }

    /// Hand over the non-empty partitions whose digit is `selected`, as
    /// [`PartitionWriter::drain`] does; the others stay, and keep
    /// appending where they were. A drained partition restarts every
    /// column at the same chunk size, so chunk boundaries still coincide.
    pub fn drain_where(
        &mut self,
        mut selected: impl FnMut(usize) -> bool,
        mut emit: impl FnMut(usize, ChunkedVec, Vec<ChunkedVec>),
    ) {
        let Some((key_out, col_outs)) = self.cols.split_first_mut() else { return };
        for digit in 0..FANOUT {
            if key_out.is_empty_at(digit) || !selected(digit) {
                continue;
            }
            let keys = key_out.take(digit);
            self.rows -= keys.len();
            emit(digit, keys, col_outs.iter_mut().map(|c| c.take(digit)).collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::pseudo_random_keys;
    use crate::{partition_keys_mapped, scatter_by_digits};
    use hsa_hash::{digit, Murmur2};

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
        let mut w = PartitionWriter::new(2, &DepotAccount::default());
        // Pieces that are empty, shorter than a hash-ahead block, and not a
        // multiple of one; the last also arrives as several chunk slices.
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
        let mut w = PartitionWriter::new(1, &DepotAccount::default());
        let mut seen = 0;
        for range in [0..700usize, 700..701, 701..2_000] {
            w.append(Murmur2::default(), 1, [&keys[range.clone()]].into_iter(), |_| {
                [&vals[range.clone()]].into_iter()
            });
            // Each hand-over starts from empty tails: it holds exactly the
            // rows appended since the previous one, values beside keys.
            let mut rows = 0;
            w.drain(|d, ks, cols| {
                assert_eq!(cols.len(), 1);
                assert_eq!(ks.len(), cols[0].len());
                let chunk_lens = |c: &ChunkedVec| c.chunks().map(<[u64]>::len).collect::<Vec<_>>();
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
    fn a_selective_drain_takes_whole_digits_and_keeps_columns_aligned() {
        let keys = pseudo_random_keys(6_000, 17);
        let v0: Vec<u64> = keys.iter().map(|k| k ^ 0x5a5a).collect();
        let v1: Vec<u64> = (0..keys.len() as u64).collect();
        let (first, second) = (4_000, keys.len());
        let mut w = PartitionWriter::new(2, &DepotAccount::default());
        let lens = |c: &ChunkedVec| c.chunks().map(<[u64]>::len).collect::<Vec<_>>();
        w.append(Murmur2::default(), 0, [&keys[..first]].into_iter(), |i| {
            [&[&v0, &v1][i][..first]].into_iter()
        });
        let per_digit: Vec<u64> = (0..FANOUT).map(|d| w.digit_mem_bytes(d)).collect();
        let scratch = w.digits.capacity() as u64;
        assert_eq!(per_digit.iter().sum::<u64>() + scratch, w.mem_bytes());

        // Every third digit leaves; what it hands over is exactly its bytes.
        let (held, rows) = (w.mem_bytes(), w.len());
        let mut early: Vec<Option<Vec<Vec<u64>>>> = vec![None; FANOUT];
        let (mut handed, mut handed_rows) = (0, 0);
        w.drain_where(
            |d| d % 3 == 0,
            |d, ks, cols| {
                assert_eq!(d % 3, 0, "digit {d} was not selected");
                assert!(cols.iter().all(|c| lens(c) == lens(&ks)), "chunks must coincide");
                let bytes = ks.mem_bytes() + cols.iter().map(ChunkedVec::mem_bytes).sum::<u64>();
                assert_eq!(bytes, per_digit[d], "digit {d} handed over what it held");
                (handed, handed_rows) = (handed + bytes, handed_rows + ks.len());
                early[d] = Some([&ks, &cols[0], &cols[1]].map(ChunkedVec::to_vec).to_vec());
            },
        );
        assert!(handed_rows > 0);
        assert_eq!((w.len(), w.mem_bytes()), (rows - handed_rows, held - handed));
        assert!((0..FANOUT).all(|d| (d % 3 == 0) == (w.digit_mem_bytes(d) == 0)));

        // The drained digits start over, the others append where they
        // were; together the pieces are the one-shot partitioning.
        w.append(Murmur2::default(), 0, [&keys[first..second]].into_iter(), |i| {
            [&[&v0, &v1][i][first..second]].into_iter()
        });
        let mut rest = Vec::new();
        w.drain(|d, ks, cols| {
            assert!(cols.iter().all(|c| lens(c) == lens(&ks)), "chunks must coincide");
            rest.push((d, [&ks, &cols[0], &cols[1]].map(ChunkedVec::to_vec).to_vec()));
        });
        assert!(w.is_empty());
        let mut rest = rest.into_iter().peekable();
        for (d, ks, cols) in one_shot(&keys, &[&v0, &v1]) {
            let mut got = early[d].take().unwrap_or_else(|| vec![Vec::new(); 3]);
            if rest.peek().is_some_and(|(rd, _)| *rd == d) {
                let (_, tail) = rest.next().unwrap();
                got.iter_mut().zip(tail).for_each(|(g, t)| g.extend(t));
            }
            assert_eq!(got, [vec![ks], cols].concat(), "digit {d}");
        }
        assert!(rest.next().is_none() && early.iter().all(Option::is_none));
    }

    #[test]
    fn key_only_rows_need_no_mapping() {
        let keys = pseudo_random_keys(1_000, 9);
        let mut w = PartitionWriter::new(0, &DepotAccount::default());
        w.append(Murmur2::default(), 0, keys.chunks(333), |_| std::iter::empty());
        assert_eq!(w.digits.capacity(), 0);
        // All the writer holds is the key column's open tails.
        let tails: usize = w.cols[0].tails.iter().map(Vec::capacity).sum();
        assert_eq!(w.mem_bytes(), tails as u64 * 8);
        assert_eq!(drained(&mut w), one_shot(&keys, &[]));
        assert_eq!(w.mem_bytes(), 0);
    }

    #[test]
    fn a_writer_dropped_with_rows_gives_every_chunk_back() {
        let keys = pseudo_random_keys(5_000, 8);
        let account = DepotAccount::open();
        let mut w = PartitionWriter::new(1, &account);
        w.append(Murmur2::default(), 0, [keys.as_slice()].into_iter(), |_| {
            [keys.as_slice()].into_iter()
        });
        let usage = account.usage();
        assert!(usage.outstanding() >= 2 * 256, "open tails and full chunks are lent");
        assert_eq!(usage.lent_high_water_bytes, w.mem_bytes() - w.digits.capacity() as u64);
        drop(drained(&mut w));
        assert_eq!(account.usage().outstanding(), 0, "drained runs give their chunks back");
        // A drained writer keeps lending through the same account.
        w.append(Murmur2::default(), 0, [&keys[..10]].into_iter(), |_| [&keys[..10]].into_iter());
        assert!(account.usage().outstanding() > 0);
        drop(w);
        assert_eq!(account.usage().outstanding(), 0);
    }

    #[test]
    fn every_value_is_handed_over_once() {
        let keys = pseudo_random_keys(1_500, 3);
        let mut w = PartitionWriter::new(1, &DepotAccount::default());
        assert_eq!((w.n_cols(), w.len(), w.mem_bytes()), (1, 0, 0));
        w.append(Murmur2::default(), 0, [keys.as_slice()].into_iter(), |_| {
            [keys.as_slice()].into_iter()
        });
        assert_eq!(w.len(), 1_500);
        let held = w.mem_bytes() - w.digits.capacity() as u64;
        let (mut values, mut handed) = (0, 0);
        w.drain(|_, ks, cols| {
            values += ks.len() + cols[0].len();
            handed += ks.mem_bytes() + cols[0].mem_bytes();
        });
        assert_eq!(values, 2 * 1_500);
        assert_eq!(handed, held, "a drain moves the chunks, it allocates none");
        assert_eq!((w.len(), w.mem_bytes()), (0, w.digits.capacity() as u64));
        w.drain(|_, _, _| panic!("nothing is left to hand over"));
    }

    #[test]
    fn mem_bytes_follows_the_chunks() {
        let mut w = PartitionWriter::new(1, &DepotAccount::default());
        assert_eq!(w.mem_bytes(), 0);
        let keys = vec![7u64; 100];
        w.append(Murmur2::default(), 0, [keys.as_slice()].into_iter(), |_| {
            [keys.as_slice()].into_iter()
        });
        // One digit, 100 values per column: a full chunk of 64 and an open
        // tail of 64 holding the other 36.
        assert_eq!(w.mem_bytes(), w.digits.capacity() as u64 + 2 * 128 * 8);
        let mut handed = 0;
        w.drain(|_, ks, cols| handed += ks.mem_bytes() + cols[0].mem_bytes());
        assert_eq!(handed, 2 * 128 * 8);
        assert_eq!(w.mem_bytes(), w.digits.capacity() as u64);
    }

    #[test]
    fn tails_survive_interleaved_appends_and_mem_bytes_is_the_sum_of_capacities() {
        // Two digits fed alternately in pieces that end inside, on and past
        // chunk boundaries, with a drain in the middle.
        let h = Murmur2::default();
        let key_of = |d: usize| (0u64..).find(|&k| digit(h.hash_u64(k), 0) == d).unwrap();
        let (ka, kb) = (key_of(3), key_of(200));
        let mut w = PartitionWriter::new(2, &DepotAccount::default());
        let mut fed = [0u64; 2];
        let mut seq = 0u64;
        for (round, &piece) in [1usize, 62, 1, 1, 63, 64, 200, 4_096, 5_000].iter().enumerate() {
            for (which, key) in [ka, kb].into_iter().enumerate() {
                let n = piece + which * 7;
                let keys = vec![key; n];
                let v0: Vec<u64> = (seq..seq + n as u64).collect();
                let v1: Vec<u64> = v0.iter().map(|v| !v).collect();
                seq += n as u64;
                fed[which] += n as u64;
                w.append(h, 0, keys.chunks(50), |i| [&v0, &v1][i].chunks(50));
            }
            let capacities: usize = w
                .cols
                .iter()
                .flat_map(|c| {
                    c.tails.iter().map(Vec::capacity).chain(c.parts.iter().flat_map(
                        |p| p.chunks().map(<[u64]>::len), // full chunks: len == capacity
                    ))
                })
                .sum();
            assert_eq!(w.mem_bytes(), w.digits.capacity() as u64 + capacities as u64 * 8);
            if round == 4 || round == 8 {
                let mut seen = Vec::new();
                w.drain(|d, ks, cols| {
                    let lens = |c: &ChunkedVec| c.chunks().map(<[u64]>::len).collect::<Vec<_>>();
                    assert_eq!(lens(&ks), lens(&cols[0]), "chunks must coincide");
                    assert_eq!(lens(&ks), lens(&cols[1]), "chunks must coincide");
                    // Values arrive in input order beside their keys.
                    assert!(cols[0].to_vec().windows(2).all(|p| p[0] < p[1]));
                    assert!(cols[0].iter().zip(cols[1].iter()).all(|(a, b)| a == !b));
                    seen.push((d, ks.len() as u64));
                });
                assert_eq!(seen, vec![(3, fed[0]), (200, fed[1])]);
                fed = [0; 2];
            }
        }
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "column 0 is shorter than the key column")]
    fn a_short_column_panics() {
        let keys = [1u64, 2, 3];
        let mut w = PartitionWriter::new(1, &DepotAccount::default());
        w.append(Murmur2::default(), 0, [&keys[..]].into_iter(), |_| [&keys[..2]].into_iter());
    }
}
