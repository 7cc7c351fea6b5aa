//! The Figure 3 partitioning ladder (§4.2), measured by `fig03` beside the
//! kernel the operator runs ([`hsa_partition::partition_keys`]):
//!
//! | variant | Figure 3 label | function |
//! |---|---|---|
//! | naive, partition by key bits | `key` | [`partition_naive`] + [`hsa_hash::Identity`] |
//! | naive, partition by hash | `hash` | [`partition_naive`] + [`hsa_hash::Murmur2`] |
//! | software write-combining | `swc` | [`partition_swc_with_mode`] |
//! | + 16-way unrolled hashing | `oo` | [`partition_overalloc`] |
//! | + two-level output | `2lvl` | [`partition_unrolled_with_mode`] |
//! | reference bandwidth | `memcpy` | [`memcpy_nt`] |
//!
//! **Software write-combining** buffers one 64-byte line per partition and
//! flushes it with non-temporal stores, avoiding the read-before-write of
//! normal stores; the paper's kernel reaches ≈ 97 % of `memcpy` with it. On
//! the virtualized hosts this reproduction runs on it is the slowest hashed
//! rung, so the operator stores each value once and the rungs live here.
//! The `oo` rungs run the operator's [`hsa_partition::hash_ahead`]; the
//! two-level rungs hand each partition's full tail chunk to
//! [`hsa_columnar::ChunkedVec::roll`], so they are cut into the
//! operator's chunks.

use hsa_hash::{digit, Hasher64, FANOUT};
use hsa_partition::{empty_parts, hash_ahead, Parts};

/// u64 words per cache line (64 B).
const LINE_U64S: usize = 8;

/// How full write-combining lines are flushed to their partition.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlushMode {
    /// Plain (cached) 64-byte copies.
    Cached,
    /// Non-temporal stores (`movnti`), bypassing the cache — the paper's
    /// choice, right for bare-metal memory-bandwidth-bound runs.
    Streaming,
}

/// One cache-line-aligned buffer line.
#[repr(align(64))]
#[derive(Copy, Clone)]
struct Line([u64; LINE_U64S]);

/// The write-combining state: one cache line per partition (16 KiB total —
/// resident in L1/L2 by construction) plus fill counters.
struct SwcBuffers {
    lines: Box<[Line; FANOUT]>,
    fill: [u8; FANOUT],
    streaming: bool,
}

impl SwcBuffers {
    fn with_mode(mode: FlushMode) -> Self {
        Self {
            lines: Box::new([Line([0; LINE_U64S]); FANOUT]),
            fill: [0; FANOUT],
            streaming: mode == FlushMode::Streaming,
        }
    }

    /// Stage `value` in partition `d`'s line; true when that filled the
    /// line, which the caller then flushes.
    #[inline(always)]
    fn stage(&mut self, d: usize, value: u64) -> bool {
        let fill = self.fill[d] as usize;
        self.lines[d].0[fill] = value;
        self.fill[d] = ((fill + 1) % LINE_U64S) as u8;
        self.fill[d] == 0
    }

    /// Append partition `d`'s full line to `dst` with the mode's stores.
    #[inline(always)]
    fn flush(&self, d: usize, dst: &mut Vec<u64>) {
        dst.reserve(LINE_U64S);
        let len = dst.len();
        let src = self.lines[d].0.as_ptr();
        // SAFETY: `reserve` leaves LINE_U64S spare slots past `len`; both
        // copies write exactly those from the line, which `self` owns and
        // `dst` cannot overlap, and `set_len` covers only what they wrote.
        unsafe {
            let spare = dst.as_mut_ptr().add(len);
            if self.streaming {
                stream_line(spare, src);
            } else {
                std::ptr::copy_nonoverlapping(src, spare, LINE_U64S);
            }
            dst.set_len(len + LINE_U64S);
        }
    }

    /// Drain all partially filled lines (end of input): `put(d, values)`
    /// receives what partition `d`'s line still holds.
    fn drain(&mut self, mut put: impl FnMut(usize, &[u64])) {
        for (d, (line, fill)) in self.lines.iter().zip(&mut self.fill).enumerate() {
            if *fill > 0 {
                put(d, &line.0[..*fill as usize]);
                *fill = 0;
            }
        }
        sfence();
    }
}

/// The two-level output of the `swc` and `2lvl` rungs: per partition the
/// chunks already full, and the open tail chunk lines are flushed into.
struct TwoLevel {
    tails: Vec<Vec<u64>>,
    parts: Parts,
}

impl TwoLevel {
    fn new() -> Self {
        Self { tails: vec![Vec::new(); FANOUT], parts: empty_parts() }
    }

    /// Flush `bufs`' full line of partition `d` into its open tail. Chunk
    /// capacities are multiples of a line, so a tail without room for one
    /// is full: it joins the partition as a whole chunk, and the next one
    /// gets the capacity the partition would have grown to. Out of line:
    /// one call per line keeps the per-value loop small enough for the
    /// compiler to inline it into `hash_ahead`.
    #[inline(never)]
    fn flush(&mut self, bufs: &SwcBuffers, d: usize) {
        let tail = &mut self.tails[d];
        if tail.capacity() - tail.len() < LINE_U64S {
            self.parts[d].roll(tail);
        }
        bufs.flush(d, tail);
    }

    /// Close the tails and append what `bufs` still holds, which fills a
    /// tail's spare capacity first: every value sits in the partitions,
    /// cut as the operator's kernel cuts them.
    fn close(self, mut bufs: SwcBuffers) -> Parts {
        let Self { tails, mut parts } = self;
        for (tail, part) in tails.into_iter().zip(&mut parts) {
            part.adopt(tail);
        }
        bufs.drain(|d, vals| parts[d].extend_from_slice(vals));
        parts
    }
}

/// Naive partitioning: one pass, `ChunkedVec::push` per key.
///
/// With [`hsa_hash::Identity`] this is Figure 3's `key` bar, with
/// [`hsa_hash::Murmur2`] its `hash` bar. Throughput is limited by the TLB
/// misses and read-before-write of scattering into 256 destinations.
pub fn partition_naive<H: Hasher64>(
    keys: impl Iterator<Item = u64>,
    hasher: H,
    level: u32,
) -> Parts {
    let mut parts = empty_parts();
    for k in keys {
        parts[digit(hasher.hash_u64(k), level)].push(k);
    }
    parts
}

/// Software write-combining, element-at-a-time hashing (Figure 3 `swc`).
pub fn partition_swc_with_mode<H: Hasher64>(
    keys: impl Iterator<Item = u64>,
    hasher: H,
    level: u32,
    mode: FlushMode,
) -> Parts {
    let mut out = TwoLevel::new();
    let mut bufs = SwcBuffers::with_mode(mode);
    for k in keys {
        let d = digit(hasher.hash_u64(k), level);
        if bufs.stage(d, k) {
            out.flush(&bufs, d);
        }
    }
    out.close(bufs)
}

/// SWC plus 16-way unrolled hash computation (Figure 3 `oo` + `2lvl`) —
/// the paper's final kernel.
pub fn partition_unrolled_with_mode<H: Hasher64>(
    keys: &[u64],
    hasher: H,
    level: u32,
    mode: FlushMode,
) -> Parts {
    let mut out = TwoLevel::new();
    let mut bufs = SwcBuffers::with_mode(mode);
    hash_ahead(keys, hasher, level, |d, k| {
        if bufs.stage(d, k) {
            out.flush(&bufs, d);
        }
    });
    out.close(bufs)
}

/// Over-allocation ablation (Figure 3 `oo`): each partition is one flat
/// `Vec` pre-reserved to hold the entire input, mimicking Wassenberg's
/// virtual-memory trick. Fastest output shape, impossible memory policy —
/// kept to measure what the two-level structure costs.
pub fn partition_overalloc<H: Hasher64>(keys: &[u64], hasher: H, level: u32) -> Vec<Vec<u64>> {
    let mut parts: Vec<Vec<u64>> = (0..FANOUT).map(|_| Vec::with_capacity(keys.len())).collect();
    let mut bufs = SwcBuffers::with_mode(FlushMode::Cached);
    hash_ahead(keys, hasher, level, |d, k| {
        if bufs.stage(d, k) {
            bufs.flush(d, &mut parts[d]);
        }
    });
    bufs.drain(|d, vals| parts[d].extend_from_slice(vals));
    parts
}

/// Store one cache line (8 × u64) from `src` to `dst`, bypassing the cache
/// on x86_64 (`movnti`). Falls back to plain copies elsewhere.
///
/// # Safety
/// `dst` must be valid for writing 8 u64s; `src` for reading 8.
#[inline(always)]
unsafe fn stream_line(dst: *mut u64, src: *const u64) {
    // Miri has no model for non-temporal stores; use the plain copy there
    // so the rungs stay checkable.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::_mm_stream_si64;
        for i in 0..LINE_U64S {
            // SAFETY: the caller promises `dst`/`src` valid for 8 u64s
            // (the function's contract); `i < LINE_U64S` keeps every
            // offset in that range, and `movnti` needs no alignment
            // beyond the u64's natural one.
            unsafe { _mm_stream_si64(dst.add(i) as *mut i64, *src.add(i) as i64) };
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        // SAFETY: caller guarantees both pointers valid for 8 u64s and
        // the regions come from distinct allocations.
        unsafe { std::ptr::copy_nonoverlapping(src, dst, LINE_U64S) };
    }
}

/// Order streaming stores before subsequent loads (no-op off x86_64).
#[inline]
fn sfence() {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: `sfence` is a pure ordering barrier with no memory
    // operands or preconditions; always available on x86_64.
    unsafe {
        std::arch::x86_64::_mm_sfence();
    }
}

/// `memcpy` built on the same non-temporal store path — the bandwidth
/// reference bar of Figure 3 ("a self-implemented memcpy using
/// non-temporal store instructions").
pub fn memcpy_nt(dst: &mut Vec<u64>, src: &[u64]) {
    dst.clear();
    dst.reserve(src.len());
    let mut chunks = src.chunks_exact(LINE_U64S);
    let mut len = 0usize;
    // SAFETY: `reserve(src.len())` guarantees capacity for every write
    // below; `len` tracks exactly how many slots are initialized (full
    // lines, then the remainder), so `set_len` covers only written
    // elements and `base` is never offset past capacity.
    unsafe {
        let base = dst.as_mut_ptr();
        for chunk in &mut chunks {
            stream_line(base.add(len), chunk.as_ptr());
            len += LINE_U64S;
        }
        let rem = chunks.remainder();
        std::ptr::copy_nonoverlapping(rem.as_ptr(), base.add(len), rem.len());
        dst.set_len(len + rem.len());
    }
    sfence();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_keys;
    use hsa_columnar::ChunkedVec;
    use hsa_hash::{Identity, Murmur2};
    use hsa_partition::partition_keys;

    const MODES: [FlushMode; 2] = [FlushMode::Cached, FlushMode::Streaming];

    /// Reference partitioning: stable, obvious, slow.
    fn reference_parts<H: Hasher64>(keys: &[u64], hasher: H, level: u32) -> Vec<Vec<u64>> {
        let mut parts = vec![Vec::new(); FANOUT];
        for &k in keys {
            parts[digit(hasher.hash_u64(k), level)].push(k);
        }
        parts
    }

    fn flat(parts: &Parts) -> Vec<Vec<u64>> {
        parts.iter().map(ChunkedVec::to_vec).collect()
    }

    fn chunk_lens(parts: &Parts) -> Vec<Vec<usize>> {
        parts.iter().map(|p| p.chunks().map(<[u64]>::len).collect()).collect()
    }

    fn check_every_rung<H: Hasher64>(keys: &[u64], h: H, level: u32) {
        let expect = reference_parts(keys, h, level);
        let it = || keys.iter().copied();
        assert_eq!(flat(&partition_naive(it(), h, level)), expect, "naive");
        for mode in MODES {
            assert_eq!(
                flat(&partition_swc_with_mode(it(), h, level, mode)),
                expect,
                "swc {mode:?}"
            );
            let unrolled = partition_unrolled_with_mode(keys, h, level, mode);
            assert_eq!(flat(&unrolled), expect, "unrolled {mode:?}");
        }
        assert_eq!(partition_overalloc(keys, h, level), expect, "overalloc");
    }

    #[test]
    fn all_variants_agree_with_reference() {
        let keys = random_keys(10_000, 7);
        check_every_rung(&keys, Murmur2::default(), 0);
        check_every_rung(&keys, Identity, 0);
        // Rows of one partition keep their input order at any digit.
        let sequential: Vec<u64> = (0..5_000).collect();
        for level in [1u32, 3, 7] {
            check_every_rung(&sequential, Murmur2::default(), level);
        }
        check_every_rung(&[], Murmur2::default(), 0);
    }

    /// The production kernel's partitions of `keys`, after asserting that
    /// every two-level rung cuts them into the same chunks.
    fn cut_like_production<H: Hasher64>(keys: &[u64], h: H) -> Parts {
        let production = partition_keys([keys].into_iter(), h, 0);
        for mode in MODES {
            for rung in [
                partition_swc_with_mode(keys.iter().copied(), h, 0, mode),
                partition_unrolled_with_mode(keys, h, 0, mode),
            ] {
                assert_eq!(chunk_lens(&rung), chunk_lens(&production), "{mode:?}");
                assert_eq!(flat(&rung), flat(&production), "{mode:?}");
            }
        }
        production
    }

    #[test]
    fn two_level_rungs_cut_partitions_like_the_production_kernel() {
        // Three long partitions (key bits pick digits 0, 9 and 200 under
        // the identity hash) climb the chunk ramp; random keys add short
        // ones everywhere.
        let mut keys = random_keys(6_000, 3);
        let digits = [0u64, 9, 200];
        keys.extend((0..9_000u64).map(|i| digits[i as usize % 3] << 56 | i));
        let by_key_bits = cut_like_production(&keys, Identity);
        assert_eq!(chunk_lens(&by_key_bits)[9][..6], [64, 64, 128, 256, 512, 1024]);
        cut_like_production(&keys, Murmur2::default());
    }

    #[test]
    fn lines_flush_on_the_line_boundary_and_drain_the_rest_both_modes() {
        for mode in MODES {
            let mut bufs = SwcBuffers::with_mode(mode);
            let mut out = TwoLevel::new();
            for i in 0..20u64 {
                if bufs.stage(3, i) {
                    out.flush(&bufs, 3);
                }
            }
            // 16 flushed (two lines) into the first chunk, 4 still buffered.
            assert_eq!(out.tails[3], (0..16).collect::<Vec<u64>>(), "{mode:?}");
            assert_eq!(out.tails[3].capacity(), 64, "{mode:?}");
            let parts = out.close(bufs);
            assert_eq!(parts[3].to_vec(), (0..20).collect::<Vec<u64>>(), "{mode:?}");
            assert_eq!(chunk_lens(&parts)[3], vec![20], "{mode:?}");
            assert_eq!(parts.iter().map(ChunkedVec::len).sum::<usize>(), 20, "{mode:?}");
        }
    }

    #[test]
    fn flat_lines_flush_and_drain_both_modes() {
        for mode in MODES {
            let mut bufs = SwcBuffers::with_mode(mode);
            let mut dst: Vec<Vec<u64>> = vec![Vec::new(); FANOUT];
            for i in 0..9u64 {
                if bufs.stage(7, i) {
                    bufs.flush(7, &mut dst[7]);
                }
            }
            assert_eq!(dst[7].len(), 8, "{mode:?}");
            bufs.drain(|d, vals| dst[d].extend_from_slice(vals));
            assert_eq!(dst[7], (0..9).collect::<Vec<u64>>(), "{mode:?}");
        }
    }

    #[test]
    fn memcpy_nt_copies_exactly() {
        let src: Vec<u64> = (0..1000).collect();
        let mut dst = vec![5; 3];
        memcpy_nt(&mut dst, &src);
        assert_eq!(dst, src);
    }

    #[test]
    fn memcpy_nt_handles_unaligned_tail_and_empty() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17] {
            let src: Vec<u64> = (0..n as u64).collect();
            let mut dst = Vec::new();
            memcpy_nt(&mut dst, &src);
            assert_eq!(dst, src, "n={n}");
        }
    }
}
