//! CLI failure classes and their process exit codes.

use hashing_is_sorting::AggError;
use std::fmt;

/// The failure class of one CLI invocation. Each class maps to a
/// distinct process exit code so scripts can react to *why* a query
/// failed (retry after a budget bump, extend the timeout, check the
/// disk) without parsing stderr.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// A resource budget was exhausted: operator memory (`--mem-budget`)
    /// or spill disk space (`--spill-limit`). Exit code 2.
    Budget,
    /// The query was cancelled: `--timeout-ms` elapsed or cancellation
    /// was requested. Exit code 3.
    Timeout,
    /// I/O failed: the input file could not be read, spill I/O failed
    /// permanently, or a spill file failed verification (corruption).
    /// Exit code 4.
    Io,
    /// The invocation itself was invalid: bad flags, malformed CSV,
    /// unknown columns, non-numeric aggregate inputs. Exit code 5.
    InvalidInput,
    /// An internal failure (e.g. a contained worker panic). Exit code 1.
    Internal,
}

impl ErrorClass {
    /// The process exit code of this class.
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorClass::Internal => 1,
            ErrorClass::Budget => 2,
            ErrorClass::Timeout => 3,
            ErrorClass::Io => 4,
            ErrorClass::InvalidInput => 5,
        }
    }

    /// Stable label used in `error: <class>: <detail>` lines.
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Budget => "budget",
            ErrorClass::Timeout => "timeout",
            ErrorClass::Io => "io",
            ErrorClass::InvalidInput => "invalid-input",
            ErrorClass::Internal => "internal",
        }
    }
}

/// A classified CLI failure: the class decides the exit code, the
/// message is the one-line detail printed to stderr.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError {
    /// Failure class (decides the exit code).
    pub class: ErrorClass,
    /// One-line human-readable detail.
    pub message: String,
}

impl CliError {
    /// Build an error in `class` with a rendered `message`.
    pub fn new(class: ErrorClass, message: impl fmt::Display) -> Self {
        Self { class, message: message.to_string() }
    }

    /// Build an invalid-input error (the most common class).
    pub fn invalid(message: impl fmt::Display) -> Self {
        Self::new(ErrorClass::InvalidInput, message)
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class.label(), self.message)
    }
}

impl std::error::Error for CliError {}

impl From<AggError> for CliError {
    // Exhaustive on purpose — no wildcard arm, and clippy (`-D warnings`
    // in CI) rejects one, whether it would hide several variants or one:
    // a new `AggError` variant does not compile until it picks its class
    // (and exit code) here explicitly.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    fn from(e: AggError) -> Self {
        let class = match &e {
            AggError::BudgetExceeded { .. } | AggError::DiskBudgetExceeded { .. } => {
                ErrorClass::Budget
            }
            AggError::Cancelled(_) => ErrorClass::Timeout,
            AggError::SpillFailed { .. } | AggError::SpillCorrupt { .. } => ErrorClass::Io,
            AggError::WorkerPanic { .. } => ErrorClass::Internal,
            // Input validation: the query or its data was malformed.
            AggError::RowCountMismatch { .. }
            | AggError::MissingInputColumn { .. }
            | AggError::SpecNeedsInput { .. }
            | AggError::MismatchedSpecs => ErrorClass::InvalidInput,
        };
        Self::new(class, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashing_is_sorting::CancelReason;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        let classes = [
            ErrorClass::Internal,
            ErrorClass::Budget,
            ErrorClass::Timeout,
            ErrorClass::Io,
            ErrorClass::InvalidInput,
        ];
        let codes: Vec<u8> = classes.iter().map(|c| c.exit_code()).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5]);
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "exit codes must be distinct");
    }

    #[test]
    fn agg_errors_classify_by_recovery_action() {
        let budget = AggError::BudgetExceeded { requested: 1, limit: 1, reserved: 1 };
        assert_eq!(CliError::from(budget).class, ErrorClass::Budget);
        let disk = AggError::DiskBudgetExceeded { requested: 1, limit: 1, reserved: 1 };
        assert_eq!(CliError::from(disk).class, ErrorClass::Budget);
        let cancel = AggError::Cancelled(CancelReason::DeadlineExceeded);
        assert_eq!(CliError::from(cancel).class, ErrorClass::Timeout);
        let io = AggError::SpillFailed { message: "eio".into() };
        assert_eq!(CliError::from(io).class, ErrorClass::Io);
        let corrupt = AggError::SpillCorrupt {
            path: "p".into(),
            extent: 0,
            expected: 1,
            actual: 2,
            what: "extent crc".into(),
        };
        assert_eq!(CliError::from(corrupt).class, ErrorClass::Io);
        let panic = AggError::WorkerPanic { message: "boom".into() };
        assert_eq!(CliError::from(panic).class, ErrorClass::Internal);
        let input = AggError::MismatchedSpecs;
        assert_eq!(CliError::from(input).class, ErrorClass::InvalidInput);
    }

    #[test]
    fn display_is_class_prefixed_one_liner() {
        let e = CliError::invalid("no column named \"x\"");
        assert_eq!(e.to_string(), "invalid-input: no column named \"x\"");
        let e: CliError = AggError::Cancelled(CancelReason::DeadlineExceeded).into();
        assert!(e.to_string().starts_with("timeout: "), "{e}");
        assert_eq!(e.to_string().lines().count(), 1);
    }
}
