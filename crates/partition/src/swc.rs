//! Software-write-combining buffers and non-temporal stores — the
//! paper's partitioning kernel, kept as the `swc` / `oo` / `2lvl` rungs of
//! the Figure 3 ablation; nothing here is on the operator's path (see the
//! crate documentation for why).
//!
//! The paper buffers one cache line per partition and flushes it with
//! **non-temporal stores** that bypass the cache (§4.2); on bare-metal
//! x86_64 that avoids the read-before-write of normal stores, under a
//! hypervisor `movnti` rotating across 256 output streams regresses.
//! [`FlushMode`] selects the flush instruction of a rung; `fig03` measures
//! both beside the production kernel.

use hsa_columnar::ChunkedVec;
use hsa_hash::FANOUT;

/// u64 words per cache line (64 B).
pub const LINE_U64S: usize = 8;

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
pub(crate) struct SwcBuffers {
    lines: Box<[Line; FANOUT]>,
    fill: [u8; FANOUT],
    streaming: bool,
}

impl SwcBuffers {
    pub(crate) fn with_mode(mode: FlushMode) -> Self {
        Self {
            lines: Box::new([Line([0; LINE_U64S]); FANOUT]),
            fill: [0; FANOUT],
            streaming: mode == FlushMode::Streaming,
        }
    }

    /// Append `value` to partition `d`, flushing the line into `dst` when
    /// it fills.
    #[inline(always)]
    pub(crate) fn push(&mut self, d: usize, value: u64, dst: &mut ChunkedVec<u64>) {
        let fill = self.fill[d] as usize;
        self.lines[d].0[fill] = value;
        if fill + 1 == LINE_U64S {
            if self.streaming {
                // SAFETY: `extend_with_line` hands `spare` valid for
                // LINE_U64S writes and `src` is the full buffered line —
                // exactly `stream_line`'s contract.
                dst.extend_with_line(&self.lines[d].0, |spare, src| unsafe {
                    stream_line(spare, src)
                });
            } else {
                // SAFETY: same pointer contract as above; `spare` and
                // `src` never overlap (`spare` is spare capacity).
                dst.extend_with_line(&self.lines[d].0, |spare, src| unsafe {
                    std::ptr::copy_nonoverlapping(src, spare, LINE_U64S)
                });
            }
            self.fill[d] = 0;
        } else {
            self.fill[d] = fill as u8 + 1;
        }
    }

    /// Same, but into a flat `Vec` (the over-allocation ablation variant).
    #[inline(always)]
    pub(crate) fn push_flat(&mut self, d: usize, value: u64, dst: &mut Vec<u64>) {
        let fill = self.fill[d] as usize;
        self.lines[d].0[fill] = value;
        if fill + 1 == LINE_U64S {
            dst.reserve(LINE_U64S);
            let len = dst.len();
            // SAFETY: `reserve` guarantees LINE_U64S spare slots past
            // `len`, both copy paths initialize exactly that many, and
            // `set_len` only covers the initialized prefix.
            unsafe {
                let spare = dst.as_mut_ptr().add(len);
                if self.streaming {
                    stream_line(spare, self.lines[d].0.as_ptr());
                } else {
                    std::ptr::copy_nonoverlapping(self.lines[d].0.as_ptr(), spare, LINE_U64S);
                }
                dst.set_len(len + LINE_U64S);
            }
            self.fill[d] = 0;
        } else {
            self.fill[d] = fill as u8 + 1;
        }
    }

    /// Drain all partially filled lines (end of input): `put(d, values)`
    /// receives what partition `d`'s line still holds.
    pub(crate) fn drain(&mut self, mut put: impl FnMut(usize, &[u64])) {
        for (d, (line, fill)) in self.lines.iter().zip(&mut self.fill).enumerate() {
            if *fill > 0 {
                put(d, &line.0[..*fill as usize]);
                *fill = 0;
            }
        }
        sfence();
    }
}

/// Store one cache line (8 × u64) from `src` to `dst`, bypassing the cache
/// on x86_64 (`movnti`). Falls back to plain copies elsewhere.
///
/// # Safety
/// `dst` must be valid for writing 8 u64s; `src` for reading 8.
#[inline(always)]
pub(crate) unsafe fn stream_line(dst: *mut u64, src: *const u64) {
    // Miri has no model for non-temporal stores; use the plain copy there
    // so the unsafe scatter/SWC paths stay checkable.
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
pub(crate) fn sfence() {
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

    #[test]
    fn memcpy_nt_copies_exactly() {
        let src: Vec<u64> = (0..1000).collect();
        let mut dst = Vec::new();
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

    #[test]
    fn buffers_flush_on_line_boundary_both_modes() {
        for mode in [FlushMode::Cached, FlushMode::Streaming] {
            let mut bufs = SwcBuffers::with_mode(mode);
            let mut dst = vec![ChunkedVec::new(); FANOUT];
            for i in 0..20u64 {
                bufs.push(3, i, &mut dst[3]);
            }
            // 16 flushed (two lines), 4 still buffered.
            assert_eq!(dst[3].len(), 16, "{mode:?}");
            bufs.drain(|d, vals| dst[d].extend_from_slice(vals));
            assert_eq!(dst[3].to_vec(), (0..20).collect::<Vec<u64>>(), "{mode:?}");
        }
    }

    #[test]
    fn flat_buffers_flush_and_drain_both_modes() {
        for mode in [FlushMode::Cached, FlushMode::Streaming] {
            let mut bufs = SwcBuffers::with_mode(mode);
            let mut dst: Vec<Vec<u64>> = vec![Vec::new(); FANOUT];
            for i in 0..9u64 {
                bufs.push_flat(7, i, &mut dst[7]);
            }
            assert_eq!(dst[7].len(), 8, "{mode:?}");
            bufs.drain(|d, vals| dst[d].extend_from_slice(vals));
            assert_eq!(dst[7], (0..9).collect::<Vec<u64>>(), "{mode:?}");
        }
    }
}
