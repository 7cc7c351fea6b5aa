//! Aggregate-function framework with super-aggregates.
//!
//! The framework mixes raw input rows and partially aggregated rows in the
//! same buckets, so combining rows needs two distinct operations (§3.1):
//!
//! * the **aggregate function** applied to raw input values, and
//! * the **super-aggregate function** (Gray et al.) applied to partial
//!   aggregates — e.g. "the super-aggregate function of COUNT is SUM".
//!
//! Only functions with O(1) intermediate state qualify for the paper's
//! merged last-pass optimization (§2.1): the *distributive* functions
//! COUNT, SUM, MIN, MAX, and the *algebraic* AVG, whose state decomposes
//! into (SUM, COUNT). MEDIAN and friends (*holistic* functions) do not and
//! are out of scope, exactly as in the paper.
//!
//! [`AggFn`] is the logical function a query asks for; [`plan`] lowers a
//! list of them to physical [`StateOp`] columns plus [`Finalizer`]s that
//! compute the visible output from the state columns; [`fold_column`]
//! folds one state column through the key pass's mapping vector.

#![forbid(unsafe_code)]

mod fold;
mod ops;
mod planning;
pub mod shims;

pub use fold::fold_column;
pub use ops::StateOp;
pub use planning::{plan, AggSpec, Finalizer, PhysicalCol, Plan};

/// Logical aggregate functions supported by the operator.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// `COUNT(*)` — number of input rows per group.
    Count,
    /// `SUM(col)` — wrapping 64-bit sum.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)` — algebraic: carried as (SUM, COUNT), finalized to f64.
    Avg,
}
