//! The error taxonomy of the fallible operator API.

use crate::cancel::CancelReason;
use std::fmt;

/// Everything that can go wrong in one operator invocation.
///
/// The `Display` messages of the input-validation variants deliberately
/// contain the exact phrases the historical panicking API used
/// ("row count mismatch", "missing input column", "different aggregate
/// specs"), so the infallible wrappers can panic with `{err}` and stay
/// drop-in compatible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggError {
    /// An aggregate input column has a different row count than the keys.
    RowCountMismatch {
        /// Index of the offending input column.
        column: usize,
        /// Rows in that column.
        got: usize,
        /// Rows in the key column.
        expected: usize,
    },
    /// An aggregate spec references an input column that was not supplied.
    MissingInputColumn {
        /// The referenced column index.
        referenced: usize,
        /// How many input columns were supplied.
        available: usize,
    },
    /// An aggregate other than COUNT was built without an input column
    /// (possible through the pub fields of `AggSpec`, not its
    /// constructors).
    SpecNeedsInput {
        /// Index of the offending spec.
        spec: usize,
    },
    /// `try_merge_partials` received a partial produced by different specs
    /// (or missing some of their state columns).
    MismatchedSpecs,
    /// A memory reservation was denied (after all degradation options
    /// were exhausted).
    BudgetExceeded {
        /// Bytes the denied reservation asked for.
        requested: u64,
        /// The budget's limit in bytes.
        limit: u64,
        /// Bytes already reserved when the request was denied.
        reserved: u64,
    },
    /// A spill write or restore failed. Spilling is the escape hatch for
    /// budget exhaustion, so I/O trouble on the spill path is surfaced as
    /// its own variant rather than folded into `BudgetExceeded`.
    SpillFailed {
        /// The underlying I/O error, rendered (keeps the enum `Eq`).
        message: String,
    },
    /// A spilled run failed verification on restore: a checksum, count,
    /// or magic mismatch that proves the bytes read back are not the
    /// bytes written. Detected corruption is always surfaced — never
    /// silently wrong rows — and is permanent: retrying the read cannot
    /// un-corrupt the file.
    SpillCorrupt {
        /// The spill file, rendered (keeps the enum `Eq`).
        path: String,
        /// 0-based ordinal of the failing extent, or `u64::MAX` when the
        /// failure is not tied to one extent (header, footer, truncation).
        extent: u64,
        /// The value the verifier expected (checksum, count, or magic).
        expected: u64,
        /// The value actually found in the file.
        actual: u64,
        /// What mismatched: `"magic"`, `"shape"`, `"extent header"`,
        /// `"extent crc"`, `"extent words"`, `"extent codec"`,
        /// `"file crc"`, `"extent count"`, `"byte count"`,
        /// `"footer magic"`, or `"truncated"`.
        what: String,
    },
    /// A spill-space reservation was denied by the disk budget: the spill
    /// directory's byte cap (`--spill-limit`) would be crossed. The disk
    /// rung is the last one on the degradation ladder, so this surfaces
    /// as a hard typed error, mirroring `BudgetExceeded` for memory.
    DiskBudgetExceeded {
        /// Bytes the denied spill asked for.
        requested: u64,
        /// The spill budget's limit in bytes.
        limit: u64,
        /// Bytes already reserved when the request was denied.
        reserved: u64,
    },
    /// The operator was cancelled cooperatively.
    Cancelled(CancelReason),
    /// A worker task panicked; the scope was drained and the payload
    /// message captured instead of re-raising.
    WorkerPanic {
        /// The panic payload, if it was a string (the common case).
        message: String,
    },
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::RowCountMismatch { column, got, expected } => write!(
                f,
                "aggregate input column {column} row count mismatch: {got} rows, keys have {expected}"
            ),
            AggError::MissingInputColumn { referenced, available } => write!(
                f,
                "aggregate references missing input column {referenced} ({available} supplied)"
            ),
            AggError::SpecNeedsInput { spec } => {
                write!(f, "aggregate spec {spec} needs an input column")
            }
            AggError::MismatchedSpecs => {
                write!(f, "partials were produced with different aggregate specs")
            }
            AggError::BudgetExceeded { requested, limit, reserved } => write!(
                f,
                "memory budget exceeded: requested {requested} B with {reserved} of {limit} B reserved"
            ),
            AggError::SpillFailed { message } => write!(f, "spill I/O failed: {message}"),
            AggError::SpillCorrupt { path, extent, expected, actual, what } => {
                write!(f, "spill file corrupt: {path}: {what} mismatch")?;
                if *extent != u64::MAX {
                    write!(f, " in extent {extent}")?;
                }
                write!(f, " (expected {expected:#x}, found {actual:#x})")
            }
            AggError::DiskBudgetExceeded { requested, limit, reserved } => write!(
                f,
                "spill disk budget exceeded: requested {requested} B with {reserved} of {limit} B reserved"
            ),
            AggError::Cancelled(reason) => write!(f, "operator cancelled: {reason}"),
            AggError::WorkerPanic { message } => write!(f, "worker task panicked: {message}"),
        }
    }
}

impl std::error::Error for AggError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_panic_phrases() {
        let e = AggError::RowCountMismatch { column: 2, got: 5, expected: 7 };
        assert!(e.to_string().contains("aggregate input column 2 row count mismatch"));
        let e = AggError::MissingInputColumn { referenced: 3, available: 1 };
        assert!(e.to_string().contains("missing input column 3"));
        assert!(AggError::MismatchedSpecs.to_string().contains("different aggregate specs"));
    }

    #[test]
    fn display_covers_runtime_variants() {
        let e = AggError::BudgetExceeded { requested: 64, limit: 128, reserved: 100 };
        assert!(e.to_string().contains("memory budget exceeded"));
        assert!(AggError::Cancelled(CancelReason::Requested).to_string().contains("cancelled"));
        assert!(AggError::Cancelled(CancelReason::DeadlineExceeded)
            .to_string()
            .contains("deadline"));
        let e = AggError::WorkerPanic { message: "boom".into() };
        assert!(e.to_string().contains("boom"));
        let e = AggError::SpillFailed { message: "disk full".into() };
        assert!(e.to_string().contains("spill I/O failed: disk full"));
        let e = AggError::SpillCorrupt {
            path: "/tmp/run.bin".into(),
            extent: 3,
            expected: 0xdead,
            actual: 0xbeef,
            what: "extent crc".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("spill file corrupt"), "{msg}");
        assert!(msg.contains("extent 3"), "{msg}");
        assert!(msg.contains("0xdead") && msg.contains("0xbeef"), "{msg}");
        let e = AggError::SpillCorrupt {
            path: "p".into(),
            extent: u64::MAX,
            expected: 1,
            actual: 2,
            what: "truncated".into(),
        };
        assert!(!e.to_string().contains("extent 18446"), "{e}");
        let e = AggError::DiskBudgetExceeded { requested: 64, limit: 128, reserved: 100 };
        assert!(e.to_string().contains("spill disk budget exceeded"));
    }

    #[test]
    fn errors_are_comparable_and_send() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<AggError>();
        assert_eq!(AggError::MismatchedSpecs, AggError::MismatchedSpecs);
        assert_ne!(
            AggError::Cancelled(CancelReason::Requested),
            AggError::Cancelled(CancelReason::DeadlineExceeded)
        );
    }
}
