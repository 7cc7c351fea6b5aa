//! Physical per-column state operations — the innermost loops of the whole
//! operator, so everything here is branch-light and `#[inline(always)]`.

/// A physical aggregate state operation over one `u64` state column.
///
/// Three methods cover the life of a state:
///
/// * [`StateOp::init`] — state of a brand-new group from a raw value,
/// * [`StateOp::apply`] — fold one more *raw* value in,
/// * [`StateOp::merge`] — fold a *partial aggregate* in (super-aggregate).
///
/// `Count` is the one op where `apply` and `merge` differ (`+1` vs `+s`),
/// which is the entire reason the framework tracks the `aggregated` flag on
/// runs (§3.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum StateOp {
    /// Row count; `init` = 1, ignores the input value.
    Count,
    /// Wrapping sum (documented wrap-around instead of a hot-loop panic).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl StateOp {
    /// State for a new group seen with raw input value `v`.
    #[inline(always)]
    pub fn init(self, v: u64) -> u64 {
        match self {
            StateOp::Count => 1,
            StateOp::Sum | StateOp::Min | StateOp::Max => v,
        }
    }

    /// Fold raw input value `v` into existing state `s`.
    #[inline(always)]
    pub fn apply(self, s: u64, v: u64) -> u64 {
        match self {
            StateOp::Count => s.wrapping_add(1),
            StateOp::Sum => s.wrapping_add(v),
            StateOp::Min => s.min(v),
            StateOp::Max => s.max(v),
        }
    }

    /// Fold partial-aggregate state `other` into state `s`
    /// (the super-aggregate function: COUNT merges by SUM).
    #[inline(always)]
    pub fn merge(self, s: u64, other: u64) -> u64 {
        match self {
            StateOp::Count | StateOp::Sum => s.wrapping_add(other),
            StateOp::Min => s.min(other),
            StateOp::Max => s.max(other),
        }
    }

    /// Combine a value into state, choosing `apply` or `merge` by whether
    /// the incoming run is aggregated. Kept as one call so kernels hoist
    /// the branch out of their loops naturally (the flag is per-run).
    #[inline(always)]
    pub fn combine(self, s: u64, v: u64, incoming_aggregated: bool) -> u64 {
        if incoming_aggregated {
            self.merge(s, v)
        } else {
            self.apply(s, v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_apply_vs_merge_differ() {
        // Two raw rows then merging two partial counts must agree.
        let c1 = StateOp::Count.apply(StateOp::Count.init(10), 20); // 2 rows
        let c2 = StateOp::Count.apply(StateOp::Count.init(30), 40); // 2 rows
        assert_eq!(c1, 2);
        assert_eq!(StateOp::Count.merge(c1, c2), 4);
        // apply on a partial count would be wrong: 2 + 1 != 4.
        assert_ne!(StateOp::Count.apply(c1, c2), 4);
    }

    #[test]
    fn sum_is_associative_across_apply_and_merge() {
        let raw = [3u64, 9, 27, 81];
        let all = raw.iter().fold(0u64, |s, &v| StateOp::Sum.apply(s, v));
        let left = StateOp::Sum.apply(StateOp::Sum.init(3), 9);
        let right = StateOp::Sum.apply(StateOp::Sum.init(27), 81);
        assert_eq!(StateOp::Sum.merge(left, right), all);
    }

    #[test]
    fn min_max_init_and_fold() {
        assert_eq!(StateOp::Min.apply(StateOp::Min.init(5), 3), 3);
        assert_eq!(StateOp::Min.apply(StateOp::Min.init(5), 7), 5);
        assert_eq!(StateOp::Max.apply(StateOp::Max.init(5), 3), 5);
        assert_eq!(StateOp::Max.apply(StateOp::Max.init(5), 7), 7);
        // merge == apply for min/max (they are their own super-aggregate).
        assert_eq!(StateOp::Min.merge(3, 7), 3);
        assert_eq!(StateOp::Max.merge(3, 7), 7);
    }

    #[test]
    fn sum_wraps_instead_of_panicking() {
        assert_eq!(StateOp::Sum.apply(u64::MAX, 2), 1);
    }

    #[test]
    fn combine_dispatches_on_flag() {
        assert_eq!(StateOp::Count.combine(5, 100, false), 6);
        assert_eq!(StateOp::Count.combine(5, 100, true), 105);
    }
}
