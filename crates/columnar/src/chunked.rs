//! The two-level list-of-arrays (§4.2).
//!
//! Partitioning does not know the final size of its 256 outputs before
//! processing. The usual fix is a counting pre-pass (an extra scan) or
//! virtual-memory over-allocation (not available to an industry-grade
//! database's allocator). The paper instead appends to a *list of arrays*:
//! amortized O(1) growth, never relocates existing elements, and costs only
//! ~2% of partitioning bandwidth (Figure 3, `2lvl` vs over-allocation).

/// Default chunk length in elements. 4096 × 8 B = 32 KiB per chunk: big
/// enough that chunk bookkeeping vanishes, small enough that 256 partial
/// output partitions do not blow up memory.
pub const DEFAULT_CHUNK_LEN: usize = 4096;

/// Minimum capacity of a freshly grown chunk (must divide every larger
/// chunk size and be a multiple of the 8-element cache line).
const MIN_CHUNK_LEN: usize = 64;

/// A growable sequence stored as a list of arrays.
///
/// Chunk capacities double from `MIN_CHUNK_LEN` (64) up to the configured
/// `chunk_len` and stay there — a run holding 50 rows costs one 64-element
/// chunk, not a 4096-element one, which matters because a single
/// partitioning pass materializes up to 256 runs × columns of them. Each
/// chunk is filled completely before the next one is grown, so the
/// sequence is scanned in maximal contiguous slices via
/// [`ChunkedVec::chunks`] / [`ChunkedVec::tail_slice`].
#[derive(Clone, Debug)]
pub struct ChunkedVec<T> {
    chunks: Vec<Vec<T>>,
    chunk_len: usize,
    len: usize,
}

impl<T: Copy> Default for ChunkedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> ChunkedVec<T> {
    /// Create an empty vector with the default chunk length.
    pub fn new() -> Self {
        Self::with_chunk_len(DEFAULT_CHUNK_LEN)
    }

    /// Create an empty vector with a custom chunk length (must be > 0).
    pub fn with_chunk_len(chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        Self { chunks: Vec::new(), chunk_len, len: 0 }
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

    /// Add a fresh chunk of the capacity [`Self::push_chunk`] names.
    #[inline]
    fn grow(&mut self) {
        let capacity = self.push_chunk(Vec::new());
        self.chunks.push(Vec::with_capacity(capacity));
    }

    /// Take over a chunk that was filled outside the vector — the partition
    /// writer keeps every partition's open chunk as a plain `Vec`, a
    /// capacity compare and a store per value. `chunk`'s elements join the
    /// sequence as its new last chunk without being copied; returned is the
    /// capacity the chunk after it should get, the ramp [`ChunkedVec::push`]
    /// grows by, so vectors fed alike stay cut alike. An empty `chunk` adds
    /// nothing and asks what the first chunk should hold.
    pub fn push_chunk(&mut self, chunk: Vec<T>) -> usize {
        if !chunk.is_empty() {
            self.len += chunk.len();
            self.chunks.push(chunk);
        }
        // Doubles with the stored length, clamped to `[MIN_CHUNK_LEN,
        // chunk_len]`: tiny vectors stay tiny, large ones settle on the
        // configured chunk size.
        self.len.max(1).next_power_of_two().clamp(MIN_CHUNK_LEN.min(self.chunk_len), self.chunk_len)
    }

    /// The tail chunk, guaranteed to have room for at least one element
    /// (grows first when full). Panic-free: `grow` always pushes a chunk.
    #[inline]
    fn tail_with_room(&mut self) -> &mut Vec<T> {
        if self.tail_room() == 0 {
            self.grow();
        }
        let last = self.chunks.len() - 1;
        &mut self.chunks[last]
    }

    /// Heap bytes held by the chunks (capacity, not length): the quantity
    /// the operator's memory budget accounts a materialized column at.
    pub fn mem_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| (c.capacity() * std::mem::size_of::<T>()) as u64).sum()
    }

    /// Append one element.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.tail_with_room().push(value);
        self.len += 1;
    }

    /// Append a slice, splitting across chunk boundaries as needed.
    #[inline]
    pub fn extend_from_slice(&mut self, mut values: &[T]) {
        self.len += values.len();
        while !values.is_empty() {
            let chunk = self.tail_with_room();
            let take = (chunk.capacity() - chunk.len()).min(values.len());
            let (head, rest) = values.split_at(take);
            chunk.extend_from_slice(head);
            values = rest;
        }
    }

    /// Random access (O(#chunks) walk; the kernels never use this — they
    /// scan contiguous slices).
    #[inline]
    pub fn get(&self, index: usize) -> Option<T> {
        if index >= self.len {
            return None;
        }
        let mut remaining = index;
        for c in &self.chunks {
            if remaining < c.len() {
                return Some(c[remaining]);
            }
            remaining -= c.len();
        }
        None
    }

    /// Iterate over the underlying contiguous slices.
    #[inline]
    pub fn chunks(&self) -> impl Iterator<Item = &[T]> {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// The contiguous slice starting at row `offset` and running to the end
    /// of the chunk containing it (empty iff `offset ≥ len`). Repeatedly
    /// advancing `offset` by the returned length walks the whole vector in
    /// maximal contiguous pieces — the aligned-block iteration the
    /// column-wise kernels use.
    #[inline]
    pub fn tail_slice(&self, offset: usize) -> &[T] {
        if offset >= self.len {
            return &[];
        }
        // Walk chunks; geometry may be irregular after `append`, so do not
        // assume uniform chunk lengths.
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
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.chunks().flat_map(|c| c.iter().copied())
    }

    /// Flatten into a contiguous `Vec` (test/diagnostic helper; the kernels
    /// never need contiguity).
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for c in self.chunks() {
            out.extend_from_slice(c);
        }
        out
    }

    /// Remove all elements, keeping the first chunk's allocation as a
    /// workhorse buffer.
    pub fn clear(&mut self) {
        self.chunks.truncate(1);
        if let Some(c) = self.chunks.first_mut() {
            c.clear();
        }
        self.len = 0;
    }

    /// Move all elements of `other` into `self`, leaving `other` empty.
    ///
    /// Chunks are moved wholesale when `self`'s tail chunk is full, so
    /// concatenating runs is O(#chunks), not O(#elements), in the common
    /// case where both sides use the same chunk length.
    pub fn append(&mut self, other: &mut Self) {
        if other.is_empty() {
            return;
        }
        if self.chunk_len == other.chunk_len && self.tail_room() == 0 {
            self.len += other.len;
            self.chunks.append(&mut other.chunks);
            other.len = 0;
            return;
        }
        // Slow path: element-wise copy; extend_from_slice maintains len.
        for chunk in std::mem::take(&mut other.chunks) {
            self.extend_from_slice(&chunk);
        }
        other.len = 0;
    }

    /// Build from a slice (convenience for tests and generators).
    pub fn from_slice(values: &[T]) -> Self {
        let mut v = Self::new();
        v.extend_from_slice(values);
        v
    }
}

impl<T: Copy + PartialEq> PartialEq for ChunkedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Copy> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
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

    #[test]
    fn push_and_get_across_chunks() {
        let mut v = ChunkedVec::with_chunk_len(4);
        for i in 0..11u64 {
            v.push(i);
        }
        assert_eq!(v.len(), 11);
        for i in 0..11u64 {
            assert_eq!(v.get(i as usize), Some(i));
        }
        assert_eq!(v.get(11), None);
    }

    #[test]
    fn extend_splits_across_boundary() {
        let mut v = ChunkedVec::with_chunk_len(8);
        v.extend_from_slice(&[1u64, 2, 3, 4, 5]);
        v.extend_from_slice(&[6, 7, 8, 9, 10, 11, 12]);
        assert_eq!(v.to_vec(), (1..=12).collect::<Vec<u64>>());
        // First chunk must be exactly full.
        assert_eq!(v.chunks().next().map(<[u64]>::len), Some(8));
    }

    #[test]
    fn extend_with_large_slice() {
        let mut v = ChunkedVec::with_chunk_len(4);
        let data: Vec<u64> = (0..37).collect();
        v.extend_from_slice(&data);
        assert_eq!(v.to_vec(), data);
    }

    #[test]
    fn chunks_are_uniform_except_last() {
        let mut v = ChunkedVec::with_chunk_len(16);
        v.extend_from_slice(&vec![7u64; 100]);
        let lens: Vec<usize> = v.chunks().map(<[u64]>::len).collect();
        assert_eq!(lens, vec![16, 16, 16, 16, 16, 16, 4]);
    }

    #[test]
    fn append_moves_chunks() {
        let mut a = ChunkedVec::with_chunk_len(4);
        a.extend_from_slice(&[1u64, 2, 3, 4]); // full tail
        let mut b = ChunkedVec::with_chunk_len(4);
        b.extend_from_slice(&[5u64, 6, 7, 8, 9]);
        a.append(&mut b);
        assert_eq!(a.to_vec(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(b.is_empty());
    }

    #[test]
    fn append_with_partial_tail_copies() {
        let mut a = ChunkedVec::with_chunk_len(4);
        a.extend_from_slice(&[1u64, 2, 3]); // partial tail
        let mut b = ChunkedVec::with_chunk_len(4);
        b.extend_from_slice(&[4u64, 5, 6, 7, 8]);
        a.append(&mut b);
        assert_eq!(a.to_vec(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.len(), 8);
        assert!(b.is_empty());
    }

    #[test]
    fn append_mismatched_chunk_len() {
        let mut a = ChunkedVec::with_chunk_len(3);
        a.extend_from_slice(&[1u64, 2, 3]);
        let mut b = ChunkedVec::with_chunk_len(5);
        b.extend_from_slice(&[4u64, 5, 6, 7]);
        a.append(&mut b);
        assert_eq!(a.to_vec(), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn clear_keeps_workhorse_chunk() {
        let mut v = ChunkedVec::with_chunk_len(4);
        v.extend_from_slice(&[1u64, 2, 3, 4, 5]);
        v.clear();
        assert!(v.is_empty());
        v.push(9);
        assert_eq!(v.to_vec(), vec![9]);
    }

    #[test]
    fn equality_ignores_chunk_geometry() {
        let mut a = ChunkedVec::with_chunk_len(2);
        let mut b = ChunkedVec::with_chunk_len(7);
        for i in 0..20u64 {
            a.push(i);
            b.push(i);
        }
        assert_eq!(a, b);
        b.push(99);
        assert_ne!(a, b);
    }

    #[test]
    fn from_iterator() {
        let v: ChunkedVec<u64> = (0..100).collect();
        assert_eq!(v.len(), 100);
        assert_eq!(v.iter().sum::<u64>(), 4950);
    }

    #[test]
    #[should_panic(expected = "chunk length must be positive")]
    fn zero_chunk_len_panics() {
        let _ = ChunkedVec::<u64>::with_chunk_len(0);
    }

    #[test]
    fn tail_slice_walks_contiguously() {
        let mut v = ChunkedVec::with_chunk_len(4);
        v.extend_from_slice(&(0u64..11).collect::<Vec<_>>());
        assert_eq!(v.tail_slice(0), &[0, 1, 2, 3]);
        assert_eq!(v.tail_slice(2), &[2, 3]);
        assert_eq!(v.tail_slice(4), &[4, 5, 6, 7]);
        assert_eq!(v.tail_slice(9), &[9, 10]);
        assert_eq!(v.tail_slice(11), &[] as &[u64]);
        assert_eq!(v.tail_slice(100), &[] as &[u64]);
    }

    #[test]
    fn advancing_by_tail_slices_reassembles_any_suffix() {
        let mut v = ChunkedVec::with_chunk_len(5);
        v.extend_from_slice(&(0u64..23).collect::<Vec<_>>());
        for offset in [0usize, 1, 5, 7, 22, 23] {
            let (mut at, mut got) = (offset, Vec::new());
            while !v.tail_slice(at).is_empty() {
                got.extend_from_slice(v.tail_slice(at));
                at += v.tail_slice(at).len();
            }
            assert_eq!(got, (offset as u64..23).collect::<Vec<_>>(), "offset {offset}");
        }
    }

    #[test]
    fn tail_slice_survives_irregular_geometry_from_append() {
        let mut a = ChunkedVec::with_chunk_len(4);
        a.extend_from_slice(&[0u64, 1, 2, 3]);
        let mut b = ChunkedVec::with_chunk_len(4);
        b.extend_from_slice(&[4u64, 5]);
        a.append(&mut b); // tail chunk of length 2 in the middle of future appends
        a.extend_from_slice(&[6u64, 7, 8]);
        assert_eq!(a.to_vec(), (0..9).collect::<Vec<u64>>());
        // The partially-filled moved chunk was topped up to [4,5,6,7].
        assert_eq!(a.tail_slice(5), &[5, 6, 7]);
    }

    #[test]
    fn push_chunk_moves_chunks_and_follows_the_growth_ramp() {
        // Filled through handed-over chunks sized by the returned
        // capacity, a vector is cut exactly like one filled by `push`.
        let mut pushed = ChunkedVec::new();
        let mut handed = ChunkedVec::new();
        let mut tail: Vec<u64> = Vec::new();
        for i in 0..10_000u64 {
            pushed.push(i);
            if tail.len() == tail.capacity() {
                let next = handed.push_chunk(std::mem::take(&mut tail));
                tail = Vec::with_capacity(next);
            }
            tail.push(i);
        }
        assert_eq!(handed.len() + tail.len(), 10_000);
        let tail_ptr = tail.as_ptr();
        handed.push_chunk(tail);
        assert_eq!(
            handed.chunks().last().map(<[u64]>::as_ptr),
            Some(tail_ptr),
            "moved, not copied"
        );
        let lens = |v: &ChunkedVec<u64>| v.chunks().map(<[u64]>::len).collect::<Vec<_>>();
        assert_eq!(lens(&handed), lens(&pushed));
        assert_eq!(handed, pushed);
        assert_eq!(handed.mem_bytes(), pushed.mem_bytes());
        // An empty chunk adds nothing, whatever its capacity.
        assert_eq!(handed.push_chunk(Vec::with_capacity(8)), DEFAULT_CHUNK_LEN);
        assert_eq!(lens(&handed), lens(&pushed));
        assert_eq!(ChunkedVec::<u64>::new().push_chunk(Vec::new()), MIN_CHUNK_LEN);
    }
}
