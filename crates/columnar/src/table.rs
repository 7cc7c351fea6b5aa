//! A minimal named-column table for the examples.
//!
//! The operator itself works on raw column slices; `Table` exists so that
//! the examples can read like the SQL queries of the paper's introduction
//! (`SELECT k, SUM(v) FROM t GROUP BY k`) without dragging in a full
//! catalog. All columns are `u64`, as in the paper's experiments ("all
//! columns are 64-bit integers", §6.1).

use std::fmt;

/// A named `u64` column.
#[derive(Clone, Debug)]
pub struct Column {
    /// Column name (unique within its table).
    pub name: String,
    /// Values, one per row.
    pub data: Vec<u64>,
}

/// Why a column could not be added to a [`Table`].
///
/// The typed counterpart of the panics in [`Table::add_column`]: library
/// users get a value they can match on, examples keep the panicking
/// wrapper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableError {
    /// A column with this name already exists.
    DuplicateColumn {
        /// The offending name.
        name: String,
    },
    /// The column's length disagrees with the table's row count.
    RowCountMismatch {
        /// The offending column name.
        name: String,
        /// Rows the new column brought.
        got: usize,
        /// Rows the table has.
        expected: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::DuplicateColumn { name } => {
                write!(f, "duplicate column name {name:?}")
            }
            TableError::RowCountMismatch { name, got, expected } => {
                write!(
                    f,
                    "column {name:?} row count mismatch: got {got} rows, table has {expected}"
                )
            }
        }
    }
}

impl std::error::Error for TableError {}

/// A named-column, fixed-row-count table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a column. The first column fixes the row count; later columns
    /// must match it and names must be unique.
    ///
    /// # Errors
    /// [`TableError::DuplicateColumn`] if the name is taken,
    /// [`TableError::RowCountMismatch`] if the length disagrees with the
    /// table's row count.
    pub fn try_add_column(
        &mut self,
        name: impl Into<String>,
        data: Vec<u64>,
    ) -> Result<&mut Self, TableError> {
        let name = name.into();
        if self.column(&name).is_some() {
            return Err(TableError::DuplicateColumn { name });
        }
        if self.columns.is_empty() {
            self.rows = data.len();
        } else if data.len() != self.rows {
            return Err(TableError::RowCountMismatch {
                name,
                got: data.len(),
                expected: self.rows,
            });
        }
        self.columns.push(Column { name, data });
        Ok(self)
    }

    /// Add a column, panicking on the errors of [`Table::try_add_column`]
    /// (examples keep error handling out of the way).
    // The documented panicking wrapper; `try_add_column` is the fallible form.
    #[allow(clippy::panic)]
    pub fn add_column(&mut self, name: impl Into<String>, data: Vec<u64>) -> &mut Self {
        match self.try_add_column(name, data) {
            Ok(_) => self,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Borrow a column's values, panicking on unknown names (examples keep
    /// error handling out of the way; library users get `column`). The
    /// panic message lists the available columns.
    // The documented panicking wrapper; `column` is the fallible form.
    #[allow(clippy::panic)]
    pub fn col(&self, name: &str) -> &[u64] {
        &self
            .column(name)
            .unwrap_or_else(|| {
                let available: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
                panic!("no column named {name:?} (available: {available:?})")
            })
            .data
    }

    /// Iterate over all columns.
    pub fn columns(&self) -> impl Iterator<Item = &Column> {
        self.columns.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut t = Table::new();
        t.add_column("k", vec![1, 2, 1]).add_column("v", vec![10, 20, 30]);
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.col("v"), &[10, 20, 30]);
        assert!(t.column("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn ragged_column_panics() {
        let mut t = Table::new();
        t.add_column("a", vec![1, 2]).add_column("b", vec![1]);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_name_panics() {
        let mut t = Table::new();
        t.add_column("a", vec![1]).add_column("a", vec![2]);
    }

    #[test]
    fn try_add_column_reports_duplicates() {
        let mut t = Table::new();
        t.try_add_column("a", vec![1]).unwrap();
        let err = t.try_add_column("a", vec![2]).unwrap_err();
        assert_eq!(err, TableError::DuplicateColumn { name: "a".into() });
        assert!(err.to_string().contains("duplicate column name"));
        assert_eq!(t.n_cols(), 1);
    }

    #[test]
    fn try_add_column_reports_ragged_rows() {
        let mut t = Table::new();
        t.try_add_column("a", vec![1, 2]).unwrap();
        let err = t.try_add_column("b", vec![1]).unwrap_err();
        assert_eq!(err, TableError::RowCountMismatch { name: "b".into(), got: 1, expected: 2 });
        assert!(err.to_string().contains("row count mismatch"));
        assert_eq!(t.n_cols(), 1);
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "no column named \"z\" (available: [\"a\", \"b\"])")]
    fn missing_column_panic_names_the_alternatives() {
        let mut t = Table::new();
        t.add_column("a", vec![1]).add_column("b", vec![2]);
        let _ = t.col("z");
    }
}
