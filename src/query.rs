//! A small fluent query layer over the operator.
//!
//! Lets application code read like the SQL the paper's introduction talks
//! about, including multi-column `GROUP BY` (fused into one key column by
//! dictionary encoding — the same trick column stores use):
//!
//! ```
//! use hashing_is_sorting::{Query, Table};
//!
//! let mut t = Table::new();
//! t.add_column("store", vec![1, 2, 1, 2, 1])
//!     .add_column("item", vec![7, 7, 8, 7, 7])
//!     .add_column("amount", vec![10, 20, 30, 40, 50]);
//!
//! // SELECT store, item, COUNT(*), SUM(amount) GROUP BY store, item
//! let result = Query::over(&t)
//!     .group_by("store")
//!     .group_by("item")
//!     .count("orders")
//!     .sum("amount", "total")
//!     .run();
//! assert_eq!(result.n_rows(), 3);
//! let rows = result.sorted_rows();
//! assert_eq!(rows[0], (vec![1, 7], vec![2.0, 60.0])); // store 1, item 7
//! ```

use crate::{
    try_aggregate_observed, AggError, AggFn, AggSpec, AggregateConfig, ExecEnv, ObsConfig,
    RunReport, Table,
};
use hsa_columnar::encode_composite;

/// A `GROUP BY` query under construction.
pub struct Query<'t> {
    table: &'t Table,
    group_by: Vec<String>,
    aggs: Vec<(String, AggFn, Option<String>)>,
    cfg: AggregateConfig,
    obs: ObsConfig,
    env: ExecEnv,
}

impl<'t> Query<'t> {
    /// Start a query over `table`.
    pub fn over(table: &'t Table) -> Self {
        Self {
            table,
            group_by: Vec::new(),
            aggs: Vec::new(),
            cfg: AggregateConfig::default(),
            obs: ObsConfig::disabled(),
            env: ExecEnv::unrestricted(),
        }
    }

    /// Add a grouping column (call repeatedly for composite keys).
    pub fn group_by(mut self, column: &str) -> Self {
        self.group_by.push(column.to_string());
        self
    }

    /// `COUNT(*) AS name`.
    pub fn count(mut self, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Count, None));
        self
    }

    /// `SUM(column) AS name`.
    pub fn sum(mut self, column: &str, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Sum, Some(column.to_string())));
        self
    }

    /// `MIN(column) AS name`.
    pub fn min(mut self, column: &str, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Min, Some(column.to_string())));
        self
    }

    /// `MAX(column) AS name`.
    pub fn max(mut self, column: &str, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Max, Some(column.to_string())));
        self
    }

    /// `AVG(column) AS name`.
    pub fn avg(mut self, column: &str, name: &str) -> Self {
        self.aggs.push((name.to_string(), AggFn::Avg, Some(column.to_string())));
        self
    }

    /// Override the operator configuration.
    pub fn with_config(mut self, cfg: AggregateConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Collect deep observability (per-worker metrics and/or the task
    /// timeline) during `run`; see [`RunReport`].
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Run under an execution environment: memory budget, cancellation
    /// token, and (for tests) fault injection.
    pub fn with_env(mut self, env: ExecEnv) -> Self {
        self.env = env;
        self
    }

    /// Execute.
    ///
    /// Panics on unknown column names (mirroring [`Table::col`]); at least
    /// one grouping column is required. [`Query::try_run`] returns these
    /// as typed errors instead.
    // The documented panicking wrapper; `try_run` is the fallible form.
    #[allow(clippy::panic)]
    pub fn run(self) -> QueryResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Execute, returning typed errors for unknown columns, an empty
    /// `GROUP BY`, and anything the operator reports under the query's
    /// [`ExecEnv`] (budget exhaustion, cancellation, contained panics).
    pub fn try_run(self) -> Result<QueryResult, AggError> {
        if self.group_by.is_empty() {
            return Err(AggError::EmptyGroupBy);
        }
        let col = |name: &str| -> Result<&[u64], AggError> {
            self.table
                .column(name)
                .map(|c| c.data.as_slice())
                .ok_or_else(|| AggError::UnknownColumn(name.to_string()))
        };
        let key_cols: Vec<&[u64]> =
            self.group_by.iter().map(|name| col(name)).collect::<Result<_, _>>()?;

        // Collect the distinct aggregate input columns.
        let mut input_names: Vec<&str> = Vec::new();
        let mut specs = Vec::with_capacity(self.aggs.len());
        for (_, func, input) in &self.aggs {
            let input_ix = match input {
                Some(name) => {
                    // Validate eagerly for a clear error site.
                    col(name)?;
                    Some(match input_names.iter().position(|n| n == name) {
                        Some(i) => i,
                        None => {
                            input_names.push(name);
                            input_names.len() - 1
                        }
                    })
                }
                None => None,
            };
            specs.push(AggSpec { func: *func, input: input_ix });
        }
        let inputs: Vec<&[u64]> = input_names.iter().map(|n| col(n)).collect::<Result<_, _>>()?;

        // One operator call over the (possibly fused) keys.
        let run = |keys: &[u64]| {
            try_aggregate_observed(keys, &inputs, &specs, &self.cfg, &self.env, &self.obs)
        };

        // Fuse composite keys; single-column keys pass through untouched.
        let (out, report, tuples) = if key_cols.len() == 1 {
            let (out, report) = run(key_cols[0])?;
            (out, report, None)
        } else {
            let (codes, tuples) = encode_composite(&key_cols);
            let (out, report) = run(&codes)?;
            (out, report, Some(tuples))
        };

        // Decode group keys back into per-column vectors.
        let n = out.n_groups();
        let mut group_cols: Vec<(String, Vec<u64>)> =
            self.group_by.iter().map(|name| (name.clone(), Vec::with_capacity(n))).collect();
        for &code in &out.keys {
            match &tuples {
                None => group_cols[0].1.push(code),
                Some(tuples) => {
                    for (c, &v) in group_cols.iter_mut().zip(&tuples[code as usize]) {
                        c.1.push(v);
                    }
                }
            }
        }

        let agg_cols: Vec<(String, AggValues)> = self
            .aggs
            .iter()
            .enumerate()
            .map(|(i, (name, ..))| {
                let vals = match out.column_u64(i) {
                    Some(v) => AggValues::U64(v),
                    None => AggValues::F64(out.column_f64(i)),
                };
                (name.clone(), vals)
            })
            .collect();

        Ok(QueryResult { group_cols, agg_cols, report })
    }
}

/// One aggregate output column.
#[derive(Clone, Debug, PartialEq)]
pub enum AggValues {
    /// Exact integer results (COUNT, SUM, MIN, MAX).
    U64(Vec<u64>),
    /// Fractional results (AVG).
    F64(Vec<f64>),
}

impl AggValues {
    /// Value at `row` as f64.
    fn get_f64(&self, row: usize) -> f64 {
        match self {
            AggValues::U64(v) => v[row] as f64,
            AggValues::F64(v) => v[row],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            AggValues::U64(v) => v.len(),
            AggValues::F64(v) => v.len(),
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of a [`Query`]: grouped rows in unspecified order.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Grouping columns, `(name, values)`, one value per result row.
    pub group_cols: Vec<(String, Vec<u64>)>,
    /// Aggregate columns, `(name, values)`, aligned with `group_cols`.
    pub agg_cols: Vec<(String, AggValues)>,
    /// Full run report: always-on statistics (`report.stats`) plus any
    /// deep metrics/trace requested via [`Query::with_obs`].
    pub report: RunReport,
}

impl QueryResult {
    /// Number of result rows (groups).
    pub fn n_rows(&self) -> usize {
        self.group_cols.first().map_or(0, |(_, v)| v.len())
    }

    /// Rows as `(group tuple, aggregate values as f64)`, sorted by group
    /// tuple — convenience for tests and small outputs.
    pub fn sorted_rows(&self) -> Vec<(Vec<u64>, Vec<f64>)> {
        let mut rows: Vec<(Vec<u64>, Vec<f64>)> = (0..self.n_rows())
            .map(|r| {
                (
                    self.group_cols.iter().map(|(_, v)| v[r]).collect(),
                    self.agg_cols.iter().map(|(_, v)| v.get_f64(r)).collect(),
                )
            })
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Render as an aligned text table (used by the CLI); group values can
    /// be remapped to strings via `decode` (e.g. dictionary decoding).
    pub fn format_table(&self, decode: impl Fn(usize, u64) -> String) -> String {
        let headers: Vec<String> = self
            .group_cols
            .iter()
            .map(|(n, _)| n.clone())
            .chain(self.agg_cols.iter().map(|(n, _)| n.clone()))
            .collect();
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.n_rows());
        for (tuple, aggs) in self.sorted_rows() {
            let mut cells: Vec<String> =
                tuple.iter().enumerate().map(|(c, &v)| decode(c, v)).collect();
            for (a, (_, col)) in aggs.iter().zip(&self.agg_cols) {
                cells.push(match col {
                    AggValues::U64(_) => format!("{}", *a as u64),
                    AggValues::F64(_) => format!("{a:.3}"),
                });
            }
            rows.push(cells);
        }
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>w$}"));
            }
            out.push('\n');
        };
        emit(&mut out, &headers);
        for row in &rows {
            emit(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new();
        t.add_column("store", vec![1, 2, 1, 2, 1, 3])
            .add_column("item", vec![7, 7, 8, 7, 7, 9])
            .add_column("amount", vec![10, 20, 30, 40, 50, 60]);
        t
    }

    #[test]
    fn single_key_all_functions() {
        let t = table();
        let r = Query::over(&t)
            .group_by("store")
            .count("n")
            .sum("amount", "sum")
            .min("amount", "min")
            .max("amount", "max")
            .avg("amount", "avg")
            .run();
        let rows = r.sorted_rows();
        assert_eq!(rows[0], (vec![1], vec![3.0, 90.0, 10.0, 50.0, 30.0]));
        assert_eq!(rows[1], (vec![2], vec![2.0, 60.0, 20.0, 40.0, 30.0]));
        assert_eq!(rows[2], (vec![3], vec![1.0, 60.0, 60.0, 60.0, 60.0]));
    }

    #[test]
    fn composite_key() {
        let t = table();
        let r = Query::over(&t).group_by("store").group_by("item").count("n").run();
        let rows = r.sorted_rows();
        assert_eq!(
            rows,
            vec![
                (vec![1, 7], vec![2.0]),
                (vec![1, 8], vec![1.0]),
                (vec![2, 7], vec![2.0]),
                (vec![3, 9], vec![1.0]),
            ]
        );
    }

    #[test]
    fn distinct_via_empty_aggs() {
        let t = table();
        let r = Query::over(&t).group_by("item").run();
        assert_eq!(r.n_rows(), 3);
        assert!(r.agg_cols.is_empty());
    }

    #[test]
    fn format_table_aligns() {
        let t = table();
        let r = Query::over(&t).group_by("store").count("rows").run();
        let text = r.format_table(|_, v| format!("s{v}"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("store"));
        assert!(lines[0].contains("rows"));
        assert!(lines[1].trim_start().starts_with("s1"));
    }

    #[test]
    fn shared_input_column_reused() {
        // sum and avg over the same column share the Sum physical state.
        let t = table();
        let r = Query::over(&t).group_by("store").sum("amount", "s").avg("amount", "a").run();
        let rows = r.sorted_rows();
        assert_eq!(rows[0].1, vec![90.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "at least one GROUP BY")]
    fn requires_group_by() {
        let t = table();
        let _ = Query::over(&t).count("n").run();
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        let t = table();
        let _ = Query::over(&t).group_by("nope").run();
    }

    #[test]
    fn try_run_returns_typed_errors() {
        let t = table();
        let err = Query::over(&t).count("n").try_run().unwrap_err();
        assert_eq!(err, AggError::EmptyGroupBy);
        let err = Query::over(&t).group_by("nope").try_run().unwrap_err();
        assert_eq!(err, AggError::UnknownColumn("nope".to_string()));
        let err = Query::over(&t).group_by("store").sum("nope2", "x").try_run().unwrap_err();
        assert_eq!(err, AggError::UnknownColumn("nope2".to_string()));
    }

    #[test]
    fn try_run_respects_a_memory_budget() {
        use crate::MemoryBudget;
        let t = table();
        let budget = MemoryBudget::limited(16);
        let err = Query::over(&t)
            .group_by("store")
            .count("n")
            .with_env(ExecEnv::unrestricted().with_budget(budget.clone()))
            .try_run()
            .unwrap_err();
        assert!(matches!(err, AggError::BudgetExceeded { .. }));
        assert_eq!(budget.outstanding(), 0, "all reservations released on failure");
    }
}
