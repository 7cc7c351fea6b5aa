//! The repo-specific invariants `hsa-lint` enforces.
//!
//! Each check consumes scanned [`SourceLine`]s and yields [`Finding`]s. The checks are deliberately line-oriented and
//! conservative: they flag what they can prove from the token channels,
//! nothing speculative.

use crate::scan::{find_word, SourceLine};
use std::fmt;

/// Which invariant a finding violates.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// A documented out-of-line cold path lost its `#[cold]` marker.
    ColdPath,
    /// An atomic protocol violation: a weak ordering with no `ORDERING`
    /// annotation, an unparseable or stale one, an unpaired Release store
    /// or Acquire load, a Relaxed access claiming publication, or a
    /// dangling `pairs-with` tag.
    Atomics,
    /// A lock-order cycle across the workspace lock graph — a potential
    /// deadlock.
    LockOrder,
}

impl Check {
    /// Stable lowercase label used in findings.
    pub fn label(self) -> &'static str {
        match self {
            Check::ColdPath => "cold-path",
            Check::Atomics => "atomics",
            Check::LockOrder => "lock-order",
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One violation, pointing at `path:line`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Invariant violated.
    pub check: Check,
    /// Path relative to the workspace root, with `/` separators.
    pub path: String,
    /// 1-based line; 0 for whole-file findings.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.check, self.message)
    }
}

/// The documented out-of-line cold paths and the marker each must carry:
/// `(file suffix, function name, required attribute)`. These keep the
/// probe walk small enough to inline into its insert loop.
pub const COLD_PATHS: &[(&str, &str, &str)] = &[("crates/hashtbl/src/grow.rs", "grow", "#[cold]")];

/// The out-of-line cold paths keep their markers.
pub fn check_cold_paths(path: &str, lines: &[SourceLine]) -> Vec<Finding> {
    let mut out = Vec::new();
    for &(suffix, func, marker) in COLD_PATHS {
        if !path.ends_with(suffix) {
            continue;
        }
        let needle = format!("fn {func}");
        let mut found = false;
        for (idx, line) in lines.iter().enumerate() {
            if line.in_test || find_word(&line.code, func).is_empty() {
                continue;
            }
            if !line.code.contains(&needle) {
                continue;
            }
            found = true;
            // Scan the contiguous attribute/comment block above for the
            // marker.
            let mut ok = false;
            let mut i = idx;
            while i > 0 {
                i -= 1;
                let l = &lines[i];
                if l.code.contains(marker) {
                    ok = true;
                    break;
                }
                if !(l.is_attribute() || (l.is_code_blank() && !l.comment.is_empty())) {
                    break;
                }
            }
            if !ok {
                out.push(Finding {
                    check: Check::ColdPath,
                    path: path.to_string(),
                    line: line.number,
                    message: format!(
                        "`{func}` must stay out of line: add {marker} \
                         (the probe fast path inlines around it)"
                    ),
                });
            }
        }
        if !found {
            out.push(Finding {
                check: Check::ColdPath,
                path: path.to_string(),
                line: 0,
                message: format!(
                    "documented cold path `{func}` not found — if it moved, \
                     update COLD_PATHS in hsa-lint"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn cold_path_check_requires_marker() {
        let with = "#[cold]\nfn grow() {}\n";
        assert!(check_cold_paths("crates/hashtbl/src/grow.rs", &scan(with)).is_empty());
        let without = "#[inline]\nfn grow() {}\n";
        let f = check_cold_paths("crates/hashtbl/src/grow.rs", &scan(without));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("#[cold]"));
        let gone = "fn something_else() {}\n";
        let f2 = check_cold_paths("crates/hashtbl/src/grow.rs", &scan(gone));
        assert_eq!(f2.len(), 1);
        assert_eq!(f2[0].line, 0);
    }

    #[test]
    fn cold_path_check_skips_other_files() {
        assert!(check_cold_paths("crates/agg/src/fold.rs", &scan("fn grow() {}\n")).is_empty());
    }
}
