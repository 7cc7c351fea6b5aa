//! The repo-specific invariants `hsa-lint` enforces.
//!
//! Each check consumes scanned [`SourceLine`]s (or a raw `Cargo.toml`)
//! and yields [`Finding`]s. The checks are deliberately line-oriented and
//! conservative: they flag what they can prove from the token channels,
//! nothing speculative.

use crate::scan::{find_word, SourceLine};
use std::fmt;

/// Which invariant a finding violates.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// An external dependency in a `Cargo.toml` (the std-only contract).
    Deps,
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
            Check::Deps => "deps",
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

/// Sections of a `Cargo.toml` whose `name = spec` entries are
/// dependencies.
fn is_dep_section(name: &str) -> bool {
    let name = name.trim();
    name == "dependencies"
        || name == "dev-dependencies"
        || name == "build-dependencies"
        || name == "workspace.dependencies"
        || (name.starts_with("target.") && name.ends_with("dependencies"))
}

/// For `[dependencies.foo]`-style headers, the dependency name; the body
/// of such a section is the dep's attribute table, not more dependencies.
fn dep_name_in_header(section: &str) -> Option<&str> {
    const PREFIXES: &[&str] =
        &["dependencies.", "dev-dependencies.", "build-dependencies.", "workspace.dependencies."];
    PREFIXES
        .iter()
        .find_map(|p| section.strip_prefix(p))
        .filter(|rest| !rest.is_empty() && !rest.contains('.'))
}

/// Dependency names the std-only contract allows: workspace members only.
fn is_internal_dep(name: &str) -> bool {
    name.starts_with("hsa-") || name == "hashing-is-sorting"
}

/// Every dependency in every manifest is a workspace-internal
/// path dependency. This encodes the std-only contract: the build cannot
/// silently grow an external dependency because CI runs this check.
pub fn check_manifest(path: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            // `[dependencies.foo]` names the dependency in the header; its
            // body is foo's attribute table, scanned for path/workspace.
            if let Some(name) = dep_name_in_header(&section) {
                check_dep_entry(path, i + 1, name, "", &mut out);
            }
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let name = key.trim().split('.').next().unwrap_or("").trim_matches('"');
        check_dep_entry(path, i + 1, name, value.trim(), &mut out);
    }
    out
}

fn check_dep_entry(path: &str, line: usize, name: &str, value: &str, out: &mut Vec<Finding>) {
    if name.is_empty() {
        return;
    }
    if !is_internal_dep(name) {
        out.push(Finding {
            check: Check::Deps,
            path: path.to_string(),
            line,
            message: format!(
                "external dependency `{name}` violates the std-only contract \
                 (only hsa-* workspace crates are allowed)"
            ),
        });
        return;
    }
    // Internal deps must stay path/workspace references — a version
    // requirement would resolve against a registry.
    let ok = value.is_empty()
        || value.contains("workspace")
        || value.contains("path")
        || value == "true";
    if !ok {
        out.push(Finding {
            check: Check::Deps,
            path: path.to_string(),
            line,
            message: format!("dependency `{name}` must be a path/workspace reference, got {value}"),
        });
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
    fn manifest_check_accepts_internal_rejects_external() {
        let toml = "\
[package]
name = \"hsa-x\"

[dependencies]
hsa-hash.workspace = true
hsa-core = { path = \"../core\" }
serde = \"1\"

[dev-dependencies]
rand = { version = \"0.8\" }
";
        let f = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("serde"));
        assert!(f[1].message.contains("rand"));
    }

    #[test]
    fn manifest_check_rejects_versioned_internal_dep() {
        let toml = "[dependencies]\nhsa-hash = \"0.1\"\n";
        let f = check_manifest("Cargo.toml", toml);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("path/workspace"));
    }

    #[test]
    fn manifest_check_ignores_non_dep_sections() {
        let toml = "[lints]\nworkspace = true\n\n[features]\ndefault = []\n";
        assert!(check_manifest("Cargo.toml", toml).is_empty());
    }

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
