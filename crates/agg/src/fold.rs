//! The mapped fold: the state-column half of the `HASHING` routine's
//! inner loop (§3.3, Figure 2).
//!
//! The key pass (`hsa_hashtbl::AggTable::insert_batch`) leaves a mapping
//! vector, row → slot, and [`fold_column`] applies it to one state column:
//! `col[mapping[j]] = op.combine(col[mapping[j]], vals[j], aggregated)`,
//! rows strictly in order.
//!
//! The probe and the fold both run row at a time, with no software
//! prefetch. The operator never builds a table larger than its
//! `cache_bytes` (§4.1: 2 MiB, one core's L2 on the reference host), so
//! the probes and the fold's read-modify-writes hit cache and a prefetch
//! pipeline has no miss to hide; it only adds work (DESIGN.md §10 has the
//! numbers).

use crate::StateOp;

/// Fold `vals` into `col` through `mapping` with `op`, in row order.
/// `aggregated` selects apply vs merge semantics exactly like
/// [`StateOp::combine`]: raw rows are applied, partial aggregates merged.
///
/// # Panics
/// In debug builds, when `vals` is shorter than `mapping`; in every build,
/// when a mapped slot is out of bounds.
#[inline]
pub fn fold_column(op: StateOp, aggregated: bool, col: &mut [u64], mapping: &[u32], vals: &[u64]) {
    debug_assert!(vals.len() >= mapping.len(), "fewer values than mapped rows");
    for (&slot, &v) in mapping.iter().zip(vals) {
        let s = &mut col[slot as usize];
        *s = op.combine(*s, v, aggregated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fold's contract, written out per operation.
    fn fold_ref(op: StateOp, merge: bool, col: &mut [u64], mapping: &[u32], vals: &[u64]) {
        for (&slot, &v) in mapping.iter().zip(vals) {
            let s = col[slot as usize];
            col[slot as usize] = match (op, merge) {
                (StateOp::Count, false) => s.wrapping_add(1),
                (StateOp::Count, true) | (StateOp::Sum, _) => s.wrapping_add(v),
                (StateOp::Min, _) => s.min(v),
                (StateOp::Max, _) => s.max(v),
            };
        }
    }

    #[test]
    fn fold_column_matches_reference_for_every_op() {
        let mut s = 0xDEC0DEu64 | 1;
        let mut r = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for op in [StateOp::Count, StateOp::Sum, StateOp::Min, StateOp::Max] {
            for merge in [false, true] {
                for _ in 0..50 {
                    let slots = 1 + (r() % 200) as usize;
                    let rows = (r() % 300) as usize;
                    let base: Vec<u64> = (0..slots).map(|_| r()).collect();
                    // Heavy duplication: a read-modify-write chain through
                    // repeated slots loses an update unless rows apply in
                    // order.
                    let mapping: Vec<u32> =
                        (0..rows).map(|_| (r() % slots as u64) as u32).collect();
                    let vals: Vec<u64> = (0..rows).map(|_| r()).collect();
                    let mut a = base.clone();
                    let mut b = base;
                    fold_column(op, merge, &mut a, &mapping, &vals);
                    fold_ref(op, merge, &mut b, &mapping, &vals);
                    assert_eq!(a, b, "{op:?} merge={merge}");
                }
            }
        }
    }

    #[test]
    fn fold_column_extreme_values() {
        // Wrapping sum.
        let mut col = vec![u64::MAX];
        fold_column(StateOp::Sum, false, &mut col, &[0, 0], &[1, 1]);
        assert_eq!(col[0], 1);
        // Unsigned min/max across the sign boundary.
        let mut col = vec![1u64 << 63];
        fold_column(StateOp::Min, false, &mut col, &[0], &[u64::MAX]);
        assert_eq!(col[0], 1 << 63);
        let mut col = vec![1u64 << 63];
        fold_column(StateOp::Max, false, &mut col, &[0], &[u64::MAX]);
        assert_eq!(col[0], u64::MAX);
        // Count apply ignores the value; merge adds it.
        let mut col = vec![10u64, 20];
        fold_column(StateOp::Count, false, &mut col, &[1, 1], &[999, 999]);
        assert_eq!(col, [10, 22]);
        let mut col = vec![10u64];
        fold_column(StateOp::Count, true, &mut col, &[0], &[32]);
        assert_eq!(col[0], 42);
    }
}
