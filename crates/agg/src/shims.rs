//! Names the frozen `benchmark/` package calls the fold by. Each is a
//! shim over [`fold_column`]: ROADMAP item 4's `[benchmark]` issue
//! removes them.

use crate::{fold_column, StateOp};

/// The one kernel.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KernelKind;

impl KernelKind {
    /// `"scalar"`, what `benchmark/` records as `kernel_tier`.
    pub fn label(self) -> &'static str {
        "scalar"
    }
}

/// The only kernel preference left.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KernelPref {
    /// The one kernel.
    Auto,
}

/// Resolves to the one kernel.
pub fn select(_pref: KernelPref) -> KernelKind {
    KernelKind
}

/// The fold's operation: [`StateOp`] under the name `benchmark/` uses.
pub type FoldOp = StateOp;

/// [`fold_column`] with the ignored kernel argument `benchmark/` passes.
#[inline]
pub fn fold_mapped(
    _kind: KernelKind,
    op: FoldOp,
    merge: bool,
    col: &mut [u64],
    mapping: &[u32],
    vals: &[u64],
) {
    fold_column(op, merge, col, mapping, vals);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shims_name_the_one_kernel() {
        assert_eq!(select(KernelPref::Auto).label(), "scalar");
        let mut col = vec![0u64; 2];
        fold_mapped(KernelKind, FoldOp::Sum, false, &mut col, &[1, 1], &[3, 4]);
        assert_eq!(col, [0, 7]);
    }
}
