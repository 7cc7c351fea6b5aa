//! The two-level list-of-arrays (§4.2).
//!
//! Partitioning does not know the final size of its 256 outputs before
//! processing. The usual fix is a counting pre-pass (an extra scan) or
//! virtual-memory over-allocation (not available to an industry-grade
//! database's allocator). The paper instead appends to a *list of arrays*:
//! amortized O(1) growth, never relocates existing elements, and costs only
//! ~2% of partitioning bandwidth (Figure 3, `2lvl` vs over-allocation).

use crate::depot::DepotAccount;

/// Capacity, in values, of the largest chunk: 4096 × 8 B = 32 KiB — big
/// enough that chunk bookkeeping vanishes, small enough that 256 partial
/// output partitions do not blow up memory.
pub const DEFAULT_CHUNK_LEN: usize = 4096;

/// Capacity of a vector's first chunk (a multiple of the 8-value cache
/// line; every capacity of the ramp is this doubled).
pub(crate) const MIN_CHUNK_LEN: usize = 64;

/// A growable sequence of `u64`s stored as a list of arrays.
///
/// Chunk capacities double from `MIN_CHUNK_LEN` (64) up to
/// [`DEFAULT_CHUNK_LEN`] and stay there — a run holding 50 rows costs one
/// 64-value chunk, not a 4096-value one, which matters because a single
/// partitioning pass materializes up to 256 runs × columns of them. Each
/// chunk is filled completely before the next one is grown, so the
/// sequence is scanned in maximal contiguous slices via
/// [`ChunkedVec::chunks`] / [`ChunkedVec::tail_slice`].
///
/// Every chunk is lent by the [chunk depot](crate::depot) through the
/// vector's [`DepotAccount`] and given back when the vector is cleared or
/// dropped.
#[derive(Debug, Default)]
pub struct ChunkedVec {
    chunks: Vec<Vec<u64>>,
    len: usize,
    account: DepotAccount,
}

impl ChunkedVec {
    /// An empty vector lent through the default (untallied) account.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty vector whose chunks are lent through `account`.
    pub fn new_in(account: &DepotAccount) -> Self {
        Self { chunks: Vec::new(), len: 0, account: account.clone() }
    }

    /// The account this vector's chunks are lent through.
    pub(crate) fn account(&self) -> &DepotAccount {
        &self.account
    }

    /// Number of elements stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remaining capacity in the tail chunk (0 if a new chunk is needed).
    #[inline]
    fn tail_room(&self) -> usize {
        match self.chunks.last() {
            Some(c) => c.capacity() - c.len(),
            None => 0,
        }
    }

    /// Capacity of the next chunk: doubles with the stored length,
    /// clamped to `[MIN_CHUNK_LEN, DEFAULT_CHUNK_LEN]` — tiny vectors stay
    /// tiny, large ones settle on the largest chunk.
    #[inline]
    fn next_capacity(&self) -> usize {
        self.len.max(1).next_power_of_two().clamp(MIN_CHUNK_LEN, DEFAULT_CHUNK_LEN)
    }

    /// Add an empty chunk from the depot, sized by the ramp.
    #[inline]
    fn grow(&mut self) {
        let chunk = self.account.take(self.next_capacity());
        self.chunks.push(chunk);
    }

    /// Adopt `tail` — a chunk this vector lent through an earlier `roll`
    /// (or an unallocated `Vec::new()`) that the caller filled outside
    /// the vector — as the new last chunk, without copying it, and lend
    /// the next chunk of the ramp in its place. The partition writer keeps
    /// every partition's open chunk as a plain `Vec`: a capacity compare
    /// and a store per value. Vectors fed alike this way or by
    /// [`ChunkedVec::push`] are cut alike.
    pub fn roll(&mut self, tail: &mut Vec<u64>) {
        self.adopt(std::mem::take(tail));
        *tail = self.account.take(self.next_capacity());
    }

    /// Adopt the last `tail` lent by [`ChunkedVec::roll`] without lending
    /// another; an empty one goes back to the depot.
    pub fn adopt(&mut self, tail: Vec<u64>) {
        if tail.is_empty() {
            self.account.give([tail]);
        } else {
            self.len += tail.len();
            self.chunks.push(tail);
        }
    }

    /// The tail chunk, guaranteed to have room for at least one element
    /// (grows first when full). Panic-free: `grow` always pushes a chunk.
    #[inline]
    fn tail_with_room(&mut self) -> &mut Vec<u64> {
        if self.tail_room() == 0 {
            self.grow();
        }
        let last = self.chunks.len() - 1;
        &mut self.chunks[last]
    }

    /// Heap bytes held by the chunks (capacity, not length): the quantity
    /// the operator's memory budget accounts a materialized column at.
    pub fn mem_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| (c.capacity() * std::mem::size_of::<u64>()) as u64).sum()
    }

    /// Append one element.
    #[inline]
    pub fn push(&mut self, value: u64) {
        self.tail_with_room().push(value);
        self.len += 1;
    }

    /// Append a slice, splitting across chunk boundaries as needed.
    #[inline]
    pub fn extend_from_slice(&mut self, mut values: &[u64]) {
        self.len += values.len();
        while !values.is_empty() {
            let chunk = self.tail_with_room();
            let take = (chunk.capacity() - chunk.len()).min(values.len());
            let (head, rest) = values.split_at(take);
            chunk.extend_from_slice(head);
            values = rest;
        }
    }

    /// Iterate over the underlying contiguous slices.
    #[inline]
    pub fn chunks(&self) -> impl Iterator<Item = &[u64]> {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// The contiguous slice starting at row `offset` and running to the end
    /// of the chunk containing it (empty iff `offset ≥ len`). Repeatedly
    /// advancing `offset` by the returned length walks the whole vector in
    /// maximal contiguous pieces — the aligned-block iteration the
    /// column-wise kernels use.
    #[inline]
    pub fn tail_slice(&self, offset: usize) -> &[u64] {
        if offset >= self.len {
            return &[];
        }
        // Walk chunks; a rolled-in chunk may be shorter than its
        // capacity, so do not assume uniform chunk lengths.
        let mut remaining = offset;
        for c in &self.chunks {
            if remaining < c.len() {
                return &c[remaining..];
            }
            remaining -= c.len();
        }
        &[]
    }

    /// Iterate over all elements.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks().flat_map(|c| c.iter().copied())
    }

    /// Copy into a contiguous `Vec` of exactly `len()` capacity.
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        for c in self.chunks() {
            out.extend_from_slice(c);
        }
        out
    }

    /// Remove all elements, giving every chunk back to the depot.
    pub fn clear(&mut self) {
        self.account.give(self.chunks.drain(..));
        self.len = 0;
    }

    /// Move the contents out, leaving this vector empty and lending
    /// through the same account.
    pub fn take_all(&mut self) -> Self {
        let empty = Self::new_in(&self.account);
        std::mem::replace(self, empty)
    }

    /// Build from a slice (convenience for tests and generators).
    pub fn from_slice(values: &[u64]) -> Self {
        let mut v = Self::new();
        v.extend_from_slice(values);
        v
    }
}

impl Drop for ChunkedVec {
    fn drop(&mut self) {
        self.clear();
    }
}

/// A copy in chunks lent through the same account.
impl Clone for ChunkedVec {
    fn clone(&self) -> Self {
        let mut copy = Self::new_in(&self.account);
        for c in self.chunks() {
            copy.extend_from_slice(c);
        }
        copy
    }
}

impl PartialEq for ChunkedVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl FromIterator<u64> for ChunkedVec {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut v = Self::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lens(v: &ChunkedVec) -> Vec<usize> {
        v.chunks().map(<[u64]>::len).collect()
    }

    /// `0..n`, pushed one at a time.
    fn pushed(n: u64) -> ChunkedVec {
        let mut v = ChunkedVec::new();
        (0..n).for_each(|i| v.push(i));
        v
    }

    #[test]
    fn chunks_follow_the_ramp_and_fill_completely() {
        let v = pushed(10_000);
        assert_eq!(lens(&v), [64, 64, 128, 256, 512, 1024, 2048, 4096, 1808]);
        assert_eq!(v.to_vec(), (0..10_000).collect::<Vec<u64>>());
        assert_eq!(v.mem_bytes(), 8 * (64 + 64 + 128 + 256 + 512 + 1024 + 2048 + 4096 + 4096));
        // One append is sized by the length it ends at.
        let extended = ChunkedVec::from_slice(&v.to_vec());
        assert_eq!(lens(&extended), [4096, 4096, 1808]);
        assert_eq!(lens(&ChunkedVec::from_slice(&[1; 200])), [200]);
        assert_eq!(extended, v);
    }

    #[test]
    fn extend_splits_across_boundary() {
        let mut v = ChunkedVec::new();
        v.extend_from_slice(&(0..50u64).collect::<Vec<_>>());
        v.extend_from_slice(&(50..80u64).collect::<Vec<_>>());
        assert_eq!(v.to_vec(), (0..80).collect::<Vec<u64>>());
        assert_eq!(lens(&v), [64, 16], "the first chunk is filled exactly");
    }

    #[test]
    fn clear_and_drop_give_every_chunk_back() {
        let account = DepotAccount::open();
        let mut v = ChunkedVec::new_in(&account);
        (0..300).for_each(|i| v.push(i));
        assert_eq!(account.usage().outstanding(), 4);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(account.usage().outstanding(), 0);
        v.push(9);
        assert_eq!(v.to_vec(), vec![9]);
        let copy = v.clone();
        assert_eq!(account.usage().outstanding(), 2, "a clone lends through the same account");
        drop((v, copy));
        let usage = account.usage();
        assert_eq!((usage.outstanding(), usage.returned), (0, 6));
        assert_eq!(usage.lent_high_water_bytes, 8 * (64 + 64 + 128 + 256));
    }

    #[test]
    fn equality_ignores_chunk_geometry() {
        let mut a = ChunkedVec::new();
        let mut b = ChunkedVec::new();
        let mut tail = Vec::new();
        b.roll(&mut tail);
        tail.extend_from_slice(&[0, 1, 2]);
        b.roll(&mut tail); // a short chunk mid-vector
        tail.extend_from_slice(&[3, 4]);
        b.adopt(tail);
        for i in 0..200u64 {
            a.push(i);
            if i >= 5 {
                b.push(i);
            }
        }
        assert_ne!(lens(&a), lens(&b));
        assert_eq!(a, b);
        b.push(99);
        assert_ne!(a, b);
    }

    #[test]
    fn from_iterator() {
        let v: ChunkedVec = (0..100).collect();
        assert_eq!(v.len(), 100);
        assert_eq!(v.iter().sum::<u64>(), 4950);
    }

    #[test]
    fn tail_slice_walks_contiguously() {
        let v = pushed(200);
        assert_eq!(v.tail_slice(0), (0..64).collect::<Vec<u64>>());
        assert_eq!(v.tail_slice(2), (2..64).collect::<Vec<u64>>());
        assert_eq!(v.tail_slice(64), (64..128).collect::<Vec<u64>>());
        assert_eq!(v.tail_slice(130), (130..200).collect::<Vec<u64>>());
        assert_eq!(v.tail_slice(200), &[] as &[u64]);
        assert_eq!(v.tail_slice(1000), &[] as &[u64]);
    }

    #[test]
    fn advancing_by_tail_slices_reassembles_any_suffix() {
        let v = pushed(300);
        for offset in [0usize, 1, 63, 64, 65, 255, 299, 300] {
            let (mut at, mut got) = (offset, Vec::new());
            while !v.tail_slice(at).is_empty() {
                got.extend_from_slice(v.tail_slice(at));
                at += v.tail_slice(at).len();
            }
            assert_eq!(got, (offset as u64..300).collect::<Vec<_>>(), "offset {offset}");
        }
    }

    #[test]
    fn tail_slice_survives_irregular_geometry() {
        let mut a = ChunkedVec::new();
        let mut tail = Vec::new();
        a.roll(&mut tail);
        tail.extend_from_slice(&[0, 1]);
        a.adopt(tail); // a 64-capacity chunk holding two values
        a.extend_from_slice(&[2, 3, 4]);
        assert_eq!(a.to_vec(), (0..5).collect::<Vec<u64>>());
        // The adopted chunk is topped up before the next one is lent.
        assert_eq!(lens(&a), [5]);
        assert_eq!(a.tail_slice(1), &[1, 2, 3, 4]);
    }

    #[test]
    fn roll_moves_chunks_and_follows_the_growth_ramp() {
        // Filled through rolled tails, a vector is cut exactly like one
        // filled by `push`, and every chunk goes back to the depot.
        let account = DepotAccount::open();
        let mut pushed = ChunkedVec::new();
        let mut rolled = ChunkedVec::new_in(&account);
        let mut tail: Vec<u64> = Vec::new();
        for i in 0..10_000u64 {
            pushed.push(i);
            if tail.len() == tail.capacity() {
                rolled.roll(&mut tail);
            }
            tail.push(i);
        }
        assert_eq!(rolled.len() + tail.len(), 10_000);
        let tail_ptr = tail.as_ptr();
        rolled.adopt(tail);
        assert_eq!(
            rolled.chunks().last().map(<[u64]>::as_ptr),
            Some(tail_ptr),
            "moved, not copied"
        );
        assert_eq!(lens(&rolled), lens(&pushed));
        assert_eq!(rolled, pushed);
        assert_eq!(rolled.mem_bytes(), pushed.mem_bytes());
        // An empty tail adds nothing and goes back.
        let mut empty = Vec::new();
        rolled.roll(&mut empty);
        assert_eq!(empty.capacity(), DEFAULT_CHUNK_LEN);
        rolled.adopt(empty);
        assert_eq!(lens(&rolled), lens(&pushed));
        drop(rolled);
        assert_eq!(account.usage().outstanding(), 0);
    }
}
