//! Hot-path primitives shared by the `HASHING` routine's inner loops.
//!
//! Three building blocks, all built around the same observation the paper
//! makes for `PARTITIONING` (§4, 16-way unrolled hashing): the per-element
//! CPU cost of the probe and fold loops is dominated by cache misses that
//! the out-of-order window cannot hide one row at a time. Processing rows
//! in small batches exposes the memory-level parallelism:
//!
//! * [`prefetch_read`] / [`prefetch_write`] — software prefetch hints. A
//!   batch of 16 rows is hashed first, the home cache lines of all 16 are
//!   prefetched, and only then are the probes resolved — by the time the
//!   first probe runs, the other 15 loads are in flight.
//! * [`probe_scan`] — find the first free-or-matching slot in a stretch of
//!   a probe block: the occupancy bits and a key-compare mask produce a
//!   candidate mask, and the answer is one `trailing_zeros`. Exactly
//!   equivalent to the scalar walk, so outcomes and probe-step metrics are
//!   bit-identical.
//! * [`fold_mapped`] — apply a mapping vector (§3.3, Figure 2) to a state
//!   column: `col[mapping[j]] = op(col[mapping[j]], vals[j])`, with
//!   lookahead prefetch of the state slots on the batched path.
//!
//! # Two paths
//!
//! [`select`] resolves a [`KernelPref`] to a [`KernelKind`] once per
//! operator run: `Batched` is what runs, `Scalar` is the row-at-a-time
//! reference every differential test compares it against. Both compute
//! bit-identical results; `Batched` is portable code whose only
//! machine-specific part is the prefetch hint, which compiles to nothing
//! under Miri and off x86-64.

/// Rows per pipelined batch: hash 16 keys, prefetch 16 home slots, then
/// resolve 16 probes. Matches the paper's 16-way unrolled hashing for
/// `PARTITIONING`; 16 independent loads comfortably fill the ~10-16
/// outstanding-miss budget of one core without overrunning it.
pub const BATCH: usize = 16;

/// Lookahead distance (in rows) for the fold kernels' state-slot prefetch.
/// Far enough that the prefetch completes before the store-back, close
/// enough that the line is rarely evicted again: one batch ahead.
pub const FOLD_PREFETCH_AHEAD: usize = 16;

/// Which implementation of the hot loops a kernel call runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Row-at-a-time loops — the reference semantics.
    Scalar,
    /// The [`BATCH`]-deep hash + prefetch pipeline and the prefetching
    /// fold.
    Batched,
}

impl KernelKind {
    /// Stable lowercase label used in reports and `--stats-json`.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Batched => "batched",
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Requested kernel path (configuration); resolved to a [`KernelKind`] by
/// [`select`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelPref {
    /// The batched path.
    #[default]
    Auto,
    /// Force the scalar reference path.
    Scalar,
}

/// Resolve a preference to the kernel an operator run will use.
pub fn select(pref: KernelPref) -> KernelKind {
    match pref {
        KernelPref::Auto => KernelKind::Batched,
        KernelPref::Scalar => KernelKind::Scalar,
    }
}

/// Prefetch `data[index]` for reading (T0 hint). A no-op when the index is
/// out of bounds, under Miri, and off x86-64 — prefetching is only ever a
/// hint, so the bounds check keeps the API safe without costing outcomes.
#[inline(always)]
pub fn prefetch_read<T>(data: &[T], index: usize) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if let Some(p) = data.get(index) {
        // SAFETY: `p` is a live reference; prefetch dereferences nothing.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                p as *const T as *const i8,
            );
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        let _ = (data, index);
    }
}

/// Prefetch `data[index]` for writing. Falls back to the T0 read hint —
/// `prefetchw` needs its own feature gate and the read hint already pulls
/// the line close enough for the read-modify-write folds.
#[inline(always)]
pub fn prefetch_write<T>(data: &[T], index: usize) {
    prefetch_read(data, index);
}

// ---------------------------------------------------------------------------
// Probe scan
// ---------------------------------------------------------------------------

/// Scan a contiguous stretch of probe slots for the first one that is
/// either free or holds `needle`.
///
/// `keys` is the stretch (at most 64 slots), `occ` its occupancy bits
/// (bit `i` set ⇔ `keys[i]` is a live key). Returns the first index `i`
/// where slot `i` is unoccupied (`Some((i, false))`) or occupied with
/// `keys[i] == needle` (`Some((i, true))`); `None` when every slot is
/// occupied by some other key — the caller continues with the wrapped
/// remainder of the block or reports overflow.
///
/// Equivalent to the scalar probe walk by construction: the candidate mask
/// `(!occ | matches) & len_mask` stops at exactly the slot the walk would,
/// because every lower bit being clear means every earlier slot was
/// occupied by a non-matching key.
#[inline]
pub fn probe_scan(keys: &[u64], occ: u64, needle: u64) -> Option<(usize, bool)> {
    debug_assert!(keys.len() <= 64, "probe stretch wider than the occupancy word");
    let mut matches = 0u64;
    for (i, &k) in keys.iter().enumerate() {
        matches |= u64::from(k == needle) << i;
    }
    let len_mask = if keys.len() == 64 { u64::MAX } else { (1u64 << keys.len()) - 1 };
    let stop = (!occ | matches) & len_mask;
    if stop == 0 {
        return None;
    }
    let idx = stop.trailing_zeros() as usize;
    Some((idx, occ >> idx & 1 == 1))
}

// ---------------------------------------------------------------------------
// Mapped folds
// ---------------------------------------------------------------------------

/// The four state-combining operations the fold kernels implement, each in
/// raw (`apply`) and partial-aggregate (`merge`) form. Mirrors
/// `hsa_agg::StateOp` without depending on it — the dependency points the
/// other way so `hsa-agg` can wrap these kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FoldOp {
    /// apply: `s + 1` (value ignored); merge: `s + v` (COUNT's
    /// super-aggregate is SUM).
    Count,
    /// Wrapping `s + v` in both forms.
    Sum,
    /// `min(s, v)` in both forms.
    Min,
    /// `max(s, v)` in both forms.
    Max,
}

impl FoldOp {
    #[inline(always)]
    fn combine(self, s: u64, v: u64, merge: bool) -> u64 {
        match self {
            FoldOp::Count => {
                if merge {
                    s.wrapping_add(v)
                } else {
                    s.wrapping_add(1)
                }
            }
            FoldOp::Sum => s.wrapping_add(v),
            FoldOp::Min => s.min(v),
            FoldOp::Max => s.max(v),
        }
    }
}

/// Fold `vals` into `col` through `mapping`:
/// `col[mapping[j]] = op(col[mapping[j]], vals[j], merge)` for every `j`.
///
/// * `Scalar` — the plain loop (reference semantics).
/// * `Batched` — the same loop with the state slot
///   [`FOLD_PREFETCH_AHEAD`] rows ahead prefetched; the fold is a
///   scattered read-modify-write, so hiding the state-column miss is the
///   whole win.
///
/// Both produce bit-identical columns: rows are applied strictly in
/// order and the arithmetic is the same.
///
/// # Panics
/// In debug builds, when `vals` is shorter than `mapping` or an index is
/// out of bounds (release builds bounds-check per element as usual).
#[inline]
pub fn fold_mapped(
    kind: KernelKind,
    op: FoldOp,
    merge: bool,
    col: &mut [u64],
    mapping: &[u32],
    vals: &[u64],
) {
    debug_assert!(vals.len() >= mapping.len(), "fewer values than mapped rows");
    match kind {
        KernelKind::Scalar => fold_scalar(op, merge, col, mapping, vals),
        KernelKind::Batched => fold_prefetch(op, merge, col, mapping, vals),
    }
}

#[inline]
fn fold_scalar(op: FoldOp, merge: bool, col: &mut [u64], mapping: &[u32], vals: &[u64]) {
    for (&slot, &v) in mapping.iter().zip(vals) {
        let s = &mut col[slot as usize];
        *s = op.combine(*s, v, merge);
    }
}

/// Scalar arithmetic, but the state slot of the row
/// [`FOLD_PREFETCH_AHEAD`] positions ahead is prefetched each iteration.
#[inline]
fn fold_prefetch(op: FoldOp, merge: bool, col: &mut [u64], mapping: &[u32], vals: &[u64]) {
    for (j, (&slot, &v)) in mapping.iter().zip(vals).enumerate() {
        if let Some(&ahead) = mapping.get(j + FOLD_PREFETCH_AHEAD) {
            prefetch_write(col, ahead as usize);
        }
        let s = &mut col[slot as usize];
        *s = op.combine(*s, v, merge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// Both paths, reference first.
    const KINDS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Batched];

    #[test]
    fn select_has_two_outcomes() {
        assert_eq!(select(KernelPref::Auto), KernelKind::Batched);
        assert_eq!(select(KernelPref::Scalar), KernelKind::Scalar);
        assert_eq!(select(KernelPref::default()), KernelKind::Batched);
    }

    #[test]
    fn kind_labels_are_unique() {
        assert_ne!(KernelKind::Scalar.label(), KernelKind::Batched.label());
    }

    #[test]
    fn prefetch_is_safe_everywhere() {
        let data = [1u64, 2, 3];
        prefetch_read(&data, 0);
        prefetch_read(&data, 2);
        prefetch_read(&data, 999); // out of bounds: no-op
        prefetch_write(&data, 1);
        prefetch_write::<u64>(&[], 0);
    }

    /// Reference implementation of probe_scan's contract.
    fn scan_ref(keys: &[u64], occ: u64, needle: u64) -> Option<(usize, bool)> {
        for (i, &k) in keys.iter().enumerate() {
            if occ >> i & 1 == 0 {
                return Some((i, false));
            }
            if k == needle {
                return Some((i, true));
            }
        }
        None
    }

    #[test]
    fn probe_scan_matches_reference_on_random_stretches() {
        let mut r = rng(0xC0FFEE);
        for _ in 0..500 {
            let len = (r() % 65) as usize;
            // Small key universe so hits happen often.
            let keys: Vec<u64> = (0..len).map(|_| r() % 8).collect();
            let occ = r() & if len == 64 { u64::MAX } else { (1 << len) - 1 };
            let needle = r() % 8;
            assert_eq!(
                probe_scan(&keys, occ, needle),
                scan_ref(&keys, occ, needle),
                "len={len} occ={occ:b} needle={needle}"
            );
        }
    }

    #[test]
    fn probe_scan_edge_cases() {
        // Empty stretch.
        assert_eq!(probe_scan(&[], 0, 7), None);
        // Full 64-slot stretch, all occupied, no match.
        let keys = vec![1u64; 64];
        assert_eq!(probe_scan(&keys, u64::MAX, 2), None);
        // Match in the last slot.
        let mut keys = vec![1u64; 64];
        keys[63] = u64::MAX;
        assert_eq!(probe_scan(&keys, u64::MAX, u64::MAX), Some((63, true)));
        // First slot free wins over a later match.
        let keys = [5u64, 7, 7];
        assert_eq!(probe_scan(&keys, 0b110, 7), Some((0, false)));
        // Earlier occupied mismatches are skipped.
        assert_eq!(probe_scan(&keys, 0b111, 7), Some((1, true)));
    }

    /// Reference fold.
    fn fold_ref(op: FoldOp, merge: bool, col: &mut [u64], mapping: &[u32], vals: &[u64]) {
        for (&slot, &v) in mapping.iter().zip(vals) {
            let s = &mut col[slot as usize];
            *s = op.combine(*s, v, merge);
        }
    }

    #[test]
    fn fold_mapped_matches_reference_for_every_op_and_kind() {
        let mut r = rng(0xDEC0DE);
        let ops = [FoldOp::Count, FoldOp::Sum, FoldOp::Min, FoldOp::Max];
        for kind in KINDS {
            for &op in &ops {
                for merge in [false, true] {
                    for _ in 0..50 {
                        let slots = 1 + (r() % 200) as usize;
                        let rows = (r() % 300) as usize;
                        let base: Vec<u64> = (0..slots).map(|_| r()).collect();
                        // Heavy duplication: repeated slots within one
                        // prefetch window.
                        let mapping: Vec<u32> =
                            (0..rows).map(|_| (r() % slots as u64) as u32).collect();
                        let vals: Vec<u64> = (0..rows).map(|_| r()).collect();
                        let mut a = base.clone();
                        let mut b = base;
                        fold_mapped(kind, op, merge, &mut a, &mapping, &vals);
                        fold_ref(op, merge, &mut b, &mapping, &vals);
                        assert_eq!(a, b, "{kind:?} {op:?} merge={merge}");
                    }
                }
            }
        }
    }

    #[test]
    fn fold_mapped_extreme_values() {
        for kind in KINDS {
            // Wrapping sum.
            let mut col = vec![u64::MAX];
            fold_mapped(kind, FoldOp::Sum, false, &mut col, &[0, 0], &[1, 1]);
            assert_eq!(col[0], 1, "{kind:?}");
            // Unsigned min/max across the sign boundary.
            let mut col = vec![1u64 << 63];
            fold_mapped(kind, FoldOp::Min, false, &mut col, &[0], &[u64::MAX]);
            assert_eq!(col[0], 1 << 63, "{kind:?}");
            let mut col = vec![1u64 << 63];
            fold_mapped(kind, FoldOp::Max, false, &mut col, &[0], &[u64::MAX]);
            assert_eq!(col[0], u64::MAX, "{kind:?}");
            let mut col = vec![5u64];
            fold_mapped(kind, FoldOp::Min, false, &mut col, &[0], &[1 << 63]);
            assert_eq!(col[0], 5, "{kind:?}");
            // Count apply ignores the value; merge adds it.
            let mut col = vec![10u64, 20];
            fold_mapped(kind, FoldOp::Count, false, &mut col, &[1, 1], &[999, 999]);
            assert_eq!(col, [10, 22], "{kind:?}");
            let mut col = vec![10u64];
            fold_mapped(kind, FoldOp::Count, true, &mut col, &[0], &[32]);
            assert_eq!(col[0], 42, "{kind:?}");
        }
    }

    #[test]
    fn fold_order_dependence_is_preserved_on_duplicates() {
        // Every row maps to one slot: a read-modify-write chain through
        // duplicates loses an update unless rows apply strictly in order.
        for kind in KINDS {
            let mut col = vec![0u64];
            let mapping = vec![0u32; 33];
            let vals: Vec<u64> = (0..33).collect();
            fold_mapped(kind, FoldOp::Sum, false, &mut col, &mapping, &vals);
            assert_eq!(col[0], (0..33).sum::<u64>(), "{kind:?}");
        }
    }
}
