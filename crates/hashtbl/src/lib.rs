//! Hash tables for cache-efficient aggregation.
//!
//! Two tables live here:
//!
//! * [`AggTable`] — the paper's table (§4.1): a **single-level,
//!   fixed-size, linear-probing** table sized to the cache and considered
//!   full at a **25% fill rate**, with probing confined to **blocks** so
//!   that a sealed table "cleanly splits into ranges for the recursive
//!   calls" — one range per radix digit. This is the `HASHING` building
//!   block of Algorithm 1.
//! * [`GrowTable`] — a conventional growable open-addressing aggregation
//!   table. The framework uses it only at the very bottom of the recursion
//!   (when all 64 hash bits are consumed); the §6.4 baselines use it as
//!   their per-thread table, which is exactly the design difference the
//!   paper exploits.
//!
//! Both tables are **struct-of-arrays**: the key column, an occupancy
//! bitmap, and one `u64` array per aggregate state column. State columns
//! are pre-filled with the state operation's identity so that the key pass
//! never touches them — the column-wise processing model of §3.3.

#![forbid(unsafe_code)]

mod fixed;
mod grow;

pub use fixed::{AggTable, BatchInsert, Insert, TableConfig, TableMetrics};
pub use grow::GrowTable;

/// Identity element such that `op.apply(identity, v) == op.init(v)` and
/// `op.merge(identity, s) == s` for every [`hsa_agg::StateOp`] — what state
/// columns are pre-filled with.
pub fn identity_of(op: hsa_agg::StateOp) -> u64 {
    match op {
        hsa_agg::StateOp::Count | hsa_agg::StateOp::Sum | hsa_agg::StateOp::Max => 0,
        hsa_agg::StateOp::Min => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_agg::StateOp;

    #[test]
    fn identities_are_identities() {
        for op in [StateOp::Count, StateOp::Sum, StateOp::Min, StateOp::Max] {
            let id = identity_of(op);
            for v in [0u64, 1, 42, u64::MAX] {
                assert_eq!(op.apply(id, v), op.init(v), "{op:?} apply({id}, {v})");
                assert_eq!(op.merge(id, v), v, "{op:?} merge({id}, {v})");
            }
        }
    }
}
