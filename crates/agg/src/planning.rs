//! Lowering logical aggregate specs to physical state columns.
//!
//! A query's `SUM(a), AVG(b), COUNT(*)` becomes a flat list of physical
//! `u64` state columns — `[Sum(a), Sum(b), Count, Count]` — because the
//! kernels only understand flat `u64` columns. AVG contributes two columns
//! (Gray et al.'s algebraic decomposition); duplicate COUNT columns are
//! shared. [`Finalizer`]s reconstruct the visible query output.

use crate::{AggFn, StateOp};

/// A logical aggregate requested by a query.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFn,
    /// Index of the input column carrying the aggregated values;
    /// `None` for `COUNT(*)`.
    pub input: Option<usize>,
}

impl AggSpec {
    /// `COUNT(*)`.
    pub const fn count() -> Self {
        Self { func: AggFn::Count, input: None }
    }

    /// `SUM(input)`.
    pub const fn sum(input: usize) -> Self {
        Self { func: AggFn::Sum, input: Some(input) }
    }

    /// `MIN(input)`.
    pub const fn min(input: usize) -> Self {
        Self { func: AggFn::Min, input: Some(input) }
    }

    /// `MAX(input)`.
    pub const fn max(input: usize) -> Self {
        Self { func: AggFn::Max, input: Some(input) }
    }

    /// `AVG(input)`.
    pub const fn avg(input: usize) -> Self {
        Self { func: AggFn::Avg, input: Some(input) }
    }
}

/// One physical state column the kernels maintain.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PhysicalCol {
    /// The state operation.
    pub op: StateOp,
    /// Input column feeding this state; `None` for COUNT (value ignored).
    pub input: Option<usize>,
}

/// How to compute one visible output from the physical state columns.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Finalizer {
    /// Output is state column `i` verbatim.
    State(usize),
    /// Output is `state[sum] as f64 / state[count] as f64` (AVG).
    Ratio {
        /// Index of the SUM state column.
        sum: usize,
        /// Index of the COUNT state column.
        count: usize,
    },
}

impl Finalizer {
    /// Evaluate against one group's state row.
    pub fn eval(&self, states: &[u64]) -> f64 {
        match *self {
            Finalizer::State(i) => states[i] as f64,
            Finalizer::Ratio { sum, count } => {
                if states[count] == 0 {
                    f64::NAN
                } else {
                    states[sum] as f64 / states[count] as f64
                }
            }
        }
    }
}

/// A lowered aggregation plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Physical state columns, in kernel order.
    pub cols: Vec<PhysicalCol>,
    /// One finalizer per requested [`AggSpec`], in request order.
    pub finalizers: Vec<Finalizer>,
}

/// Lower logical aggregate specs to physical columns + finalizers.
///
/// COUNT state columns are shared: `AVG(b), COUNT(*)` produces a single
/// physical Count column referenced by both finalizers, saving a state
/// column of memory traffic per duplicate — the kind of "reduce tuple size
/// and hence memory traffic" tuning §6.4 applies to the baselines too.
// `hsa-core`'s `validate_specs` rejects an input-less SUM/MIN/MAX/AVG before any caller plans.
#[allow(clippy::expect_used)]
pub fn plan(specs: &[AggSpec]) -> Plan {
    let mut cols: Vec<PhysicalCol> = Vec::new();
    let mut finalizers = Vec::with_capacity(specs.len());

    let intern = |cols: &mut Vec<PhysicalCol>, col: PhysicalCol| -> usize {
        if let Some(i) = cols.iter().position(|c| *c == col) {
            i
        } else {
            cols.push(col);
            cols.len() - 1
        }
    };

    for spec in specs {
        match spec.func {
            AggFn::Count => {
                let i = intern(&mut cols, PhysicalCol { op: StateOp::Count, input: None });
                finalizers.push(Finalizer::State(i));
            }
            AggFn::Sum | AggFn::Min | AggFn::Max => {
                let input = spec.input.expect("SUM/MIN/MAX need an input column");
                let op = match spec.func {
                    AggFn::Sum => StateOp::Sum,
                    AggFn::Min => StateOp::Min,
                    AggFn::Max => StateOp::Max,
                    _ => unreachable!(),
                };
                let i = intern(&mut cols, PhysicalCol { op, input: Some(input) });
                finalizers.push(Finalizer::State(i));
            }
            AggFn::Avg => {
                let input = spec.input.expect("AVG needs an input column");
                let sum = intern(&mut cols, PhysicalCol { op: StateOp::Sum, input: Some(input) });
                let count = intern(&mut cols, PhysicalCol { op: StateOp::Count, input: None });
                finalizers.push(Finalizer::Ratio { sum, count });
            }
        }
    }

    Plan { cols, finalizers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_star_plan() {
        let p = plan(&[AggSpec::count()]);
        assert_eq!(p.cols, vec![PhysicalCol { op: StateOp::Count, input: None }]);
        assert_eq!(p.finalizers, vec![Finalizer::State(0)]);
    }

    #[test]
    fn avg_decomposes_and_count_is_shared() {
        let p = plan(&[AggSpec::avg(0), AggSpec::count(), AggSpec::sum(0)]);
        // Sum(0) is also shared with AVG's sum part.
        assert_eq!(
            p.cols,
            vec![
                PhysicalCol { op: StateOp::Sum, input: Some(0) },
                PhysicalCol { op: StateOp::Count, input: None },
            ]
        );
        assert_eq!(
            p.finalizers,
            vec![Finalizer::Ratio { sum: 0, count: 1 }, Finalizer::State(1), Finalizer::State(0),]
        );
    }

    #[test]
    fn distinct_inputs_distinct_columns() {
        let p = plan(&[AggSpec::sum(0), AggSpec::sum(1), AggSpec::min(0), AggSpec::max(0)]);
        assert_eq!(p.cols.len(), 4);
    }

    #[test]
    fn finalizer_eval() {
        assert_eq!(Finalizer::State(1).eval(&[7, 9]), 9.0);
        assert_eq!(Finalizer::Ratio { sum: 0, count: 1 }.eval(&[10, 4]), 2.5);
        assert!(Finalizer::Ratio { sum: 0, count: 1 }.eval(&[10, 0]).is_nan());
    }

    #[test]
    #[should_panic(expected = "AVG needs an input column")]
    fn avg_without_input_panics() {
        let _ = plan(&[AggSpec { func: AggFn::Avg, input: None }]);
    }
}
