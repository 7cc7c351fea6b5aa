//! Mapped folds: the state-column update loops of §3.3 routed through the
//! `hsa-kernels` fold.
//!
//! The key pass leaves a mapping vector (row → slot); each state column is
//! then folded in its own tight loop. [`fold_column`] is that loop for one
//! [`StateOp`].

use crate::StateOp;
use hsa_kernels::{fold_mapped, FoldOp, KernelKind};

/// The kernel-level operation corresponding to a [`StateOp`].
#[inline]
pub fn fold_op(op: StateOp) -> FoldOp {
    match op {
        StateOp::Count => FoldOp::Count,
        StateOp::Sum => FoldOp::Sum,
        StateOp::Min => FoldOp::Min,
        StateOp::Max => FoldOp::Max,
    }
}

/// Fold `vals` into `col` through `mapping` with `op`. `aggregated`
/// selects apply vs merge semantics exactly like [`StateOp::combine`]: raw
/// rows are applied, partial aggregates merged.
#[inline]
pub fn fold_column(op: StateOp, aggregated: bool, col: &mut [u64], mapping: &[u32], vals: &[u64]) {
    fold_mapped(KernelKind, fold_op(op), aggregated, col, mapping, vals);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_column_agrees_with_state_op_semantics() {
        let ops = [StateOp::Count, StateOp::Sum, StateOp::Min, StateOp::Max];
        let mut s = 0x1234_5678_9ABC_DEF1u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for &op in &ops {
            for aggregated in [false, true] {
                let slots = 64usize;
                let rows = 500usize;
                let base: Vec<u64> = (0..slots as u64).map(|i| i * 7 + 1).collect();
                let mapping: Vec<u32> = (0..rows).map(|_| (rng() % slots as u64) as u32).collect();
                let vals: Vec<u64> = (0..rows).map(|_| rng()).collect();
                let mut got = base.clone();
                fold_column(op, aggregated, &mut got, &mapping, &vals);
                let mut want = base;
                for (&slot, &v) in mapping.iter().zip(&vals) {
                    let s = &mut want[slot as usize];
                    *s = op.combine(*s, v, aggregated);
                }
                assert_eq!(got, want, "{op:?} aggregated={aggregated}");
            }
        }
    }
}
