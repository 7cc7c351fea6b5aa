//! The mapped fold: the state-column half of the `HASHING` routine's
//! inner loop (§3.3, Figure 2).
//!
//! The key pass (`hsa_hashtbl::AggTable::insert_batch`) leaves a mapping
//! vector, row → slot, and [`fold_mapped`] applies it to one state column:
//! `col[mapping[j]] = op(col[mapping[j]], vals[j])`, rows strictly in
//! order.
//!
//! # One kernel
//!
//! The probe and the fold both run row at a time, with no software
//! prefetch. The operator never builds a table larger than its
//! `cache_bytes` (§4.1: 2 MiB, one core's L2 on the reference host), so
//! the probes and the fold's read-modify-writes hit cache and a prefetch
//! pipeline has no miss to hide; it only adds work (DESIGN.md §10 has the
//! numbers). The crate is std-only and has no `unsafe`.
//!
//! [`KernelKind`], [`KernelPref`] and [`select`] are shims for the frozen
//! `benchmark/` package, which names them.

#![forbid(unsafe_code)]

/// The one kernel. A shim: `benchmark/` names it; ROADMAP item 4's
/// `[benchmark]` issue removes it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KernelKind;

impl KernelKind {
    /// `"scalar"`, what `benchmark/` records as `kernel_tier`. A shim:
    /// ROADMAP item 4's `[benchmark]` issue removes it.
    pub fn label(self) -> &'static str {
        "scalar"
    }
}

/// The only kernel preference left. A shim: `benchmark/` names it;
/// ROADMAP item 4's `[benchmark]` issue removes it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KernelPref {
    /// The one kernel.
    Auto,
}

/// Resolves to the one kernel. A shim: `benchmark/` calls it; ROADMAP
/// item 4's `[benchmark]` issue removes it.
pub fn select(_pref: KernelPref) -> KernelKind {
    KernelKind
}

/// The four state-combining operations the fold implements, each in raw
/// (`apply`) and partial-aggregate (`merge`) form. Mirrors
/// `hsa_agg::StateOp` without depending on it — the dependency points the
/// other way so `hsa-agg` can wrap this kernel.
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
/// `col[mapping[j]] = op(col[mapping[j]], vals[j], merge)` for every `j`,
/// in row order.
///
/// `_kind` is ignored. A shim: `benchmark/` passes it; ROADMAP item 4's
/// `[benchmark]` issue removes it.
///
/// # Panics
/// In debug builds, when `vals` is shorter than `mapping`; in every build,
/// when a mapped slot is out of bounds.
#[inline]
pub fn fold_mapped(
    _kind: KernelKind,
    op: FoldOp,
    merge: bool,
    col: &mut [u64],
    mapping: &[u32],
    vals: &[u64],
) {
    debug_assert!(vals.len() >= mapping.len(), "fewer values than mapped rows");
    for (&slot, &v) in mapping.iter().zip(vals) {
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

    #[test]
    fn the_shims_name_the_one_kernel() {
        assert_eq!(select(KernelPref::Auto), KernelKind);
        assert_eq!(select(KernelPref::Auto).label(), "scalar");
    }

    /// The fold's contract, written out per operation.
    fn fold_ref(op: FoldOp, merge: bool, col: &mut [u64], mapping: &[u32], vals: &[u64]) {
        for (&slot, &v) in mapping.iter().zip(vals) {
            let s = col[slot as usize];
            col[slot as usize] = match (op, merge) {
                (FoldOp::Count, false) => s.wrapping_add(1),
                (FoldOp::Count, true) | (FoldOp::Sum, _) => s.wrapping_add(v),
                (FoldOp::Min, _) => s.min(v),
                (FoldOp::Max, _) => s.max(v),
            };
        }
    }

    #[test]
    fn fold_mapped_matches_reference_for_every_op() {
        let mut r = rng(0xDEC0DE);
        for op in [FoldOp::Count, FoldOp::Sum, FoldOp::Min, FoldOp::Max] {
            for merge in [false, true] {
                for _ in 0..50 {
                    let slots = 1 + (r() % 200) as usize;
                    let rows = (r() % 300) as usize;
                    let base: Vec<u64> = (0..slots).map(|_| r()).collect();
                    // Heavy duplication: repeated slots close together.
                    let mapping: Vec<u32> =
                        (0..rows).map(|_| (r() % slots as u64) as u32).collect();
                    let vals: Vec<u64> = (0..rows).map(|_| r()).collect();
                    let mut a = base.clone();
                    let mut b = base;
                    fold_mapped(KernelKind, op, merge, &mut a, &mapping, &vals);
                    fold_ref(op, merge, &mut b, &mapping, &vals);
                    assert_eq!(a, b, "{op:?} merge={merge}");
                }
            }
        }
    }

    #[test]
    fn fold_mapped_extreme_values() {
        let fold = |op, merge, col: &mut [u64], mapping: &[u32], vals: &[u64]| {
            fold_mapped(KernelKind, op, merge, col, mapping, vals)
        };
        // Wrapping sum.
        let mut col = vec![u64::MAX];
        fold(FoldOp::Sum, false, &mut col, &[0, 0], &[1, 1]);
        assert_eq!(col[0], 1);
        // Unsigned min/max across the sign boundary.
        let mut col = vec![1u64 << 63];
        fold(FoldOp::Min, false, &mut col, &[0], &[u64::MAX]);
        assert_eq!(col[0], 1 << 63);
        let mut col = vec![1u64 << 63];
        fold(FoldOp::Max, false, &mut col, &[0], &[u64::MAX]);
        assert_eq!(col[0], u64::MAX);
        let mut col = vec![5u64];
        fold(FoldOp::Min, false, &mut col, &[0], &[1 << 63]);
        assert_eq!(col[0], 5);
        // Count apply ignores the value; merge adds it.
        let mut col = vec![10u64, 20];
        fold(FoldOp::Count, false, &mut col, &[1, 1], &[999, 999]);
        assert_eq!(col, [10, 22]);
        let mut col = vec![10u64];
        fold(FoldOp::Count, true, &mut col, &[0], &[32]);
        assert_eq!(col[0], 42);
    }

    #[test]
    fn fold_order_dependence_is_preserved_on_duplicates() {
        // Every row maps to one slot: a read-modify-write chain through
        // duplicates loses an update unless rows apply strictly in order.
        let mut col = vec![0u64];
        let mapping = vec![0u32; 33];
        let vals: Vec<u64> = (0..33).collect();
        fold_mapped(KernelKind, FoldOp::Sum, false, &mut col, &mapping, &vals);
        assert_eq!(col[0], (0..33).sum::<u64>());
    }
}
