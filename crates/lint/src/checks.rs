//! The repo-specific invariants `hsa-lint` enforces.
//!
//! Each check consumes scanned [`SourceLine`]s (or a raw `Cargo.toml`)
//! and yields [`Finding`]s. The checks are deliberately line-oriented and
//! conservative: they flag what they can prove from the token channels,
//! nothing speculative.

use crate::scan::{find_word, SourceLine};
use std::collections::BTreeMap;
use std::fmt;

/// Which invariant a finding violates.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// `unsafe` without a `// SAFETY:` justification.
    Safety,
    /// Non-`SeqCst` atomic ordering without a `// ORDERING:` justification.
    Ordering,
    /// `unwrap()` / `expect()` / `panic!` in a library crate beyond the
    /// frozen allowlist.
    Panic,
    /// An external dependency in a `Cargo.toml` (the std-only contract).
    Deps,
    /// A documented out-of-line collision path lost its `#[inline(never)]`
    /// or `#[cold]` marker.
    ColdPath,
    /// An atomic protocol violation: an unparseable/stale `ORDERING`
    /// annotation, an unpaired Release store or Acquire load, a Relaxed
    /// access claiming publication, or a dangling `pairs-with` tag.
    Atomics,
    /// A lock-order cycle across the workspace lock graph — a potential
    /// deadlock.
    LockOrder,
    /// A budget-returning RAII guard reaches `mem::forget`,
    /// `ManuallyDrop::new`, or `Box::leak` outside tests.
    RaiiLeak,
}

impl Check {
    /// Stable lowercase label used in findings and the allowlist file.
    pub fn label(self) -> &'static str {
        match self {
            Check::Safety => "safety",
            Check::Ordering => "ordering",
            Check::Panic => "panic",
            Check::Deps => "deps",
            Check::ColdPath => "cold-path",
            Check::Atomics => "atomics",
            Check::LockOrder => "lock-order",
            Check::RaiiLeak => "raii-leak",
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

/// How many annotation-bearing lines above a site are searched before the
/// contiguity rules below give up.
const LOOKBACK: usize = 16;

/// Does line `idx` carry `needle` in a comment on the same line, or in the
/// contiguous run of comment / attribute lines directly above it?
///
/// The upward scan also steps over lines that contain another site of the
/// same kind (`extra_site` returns true), so one comment can cover a
/// stacked pair like two `unsafe impl`s or the two ordering arguments of a
/// `compare_exchange`.
fn annotated(
    lines: &[SourceLine],
    idx: usize,
    needles: &[&str],
    extra_site: impl Fn(&SourceLine) -> bool,
) -> bool {
    let hit = |l: &SourceLine| needles.iter().any(|n| l.comment.contains(n));
    if hit(&lines[idx]) {
        return true;
    }
    let mut seen = 0usize;
    let mut extra_hops = 0usize;
    let mut i = idx;
    while i > 0 && seen < LOOKBACK {
        i -= 1;
        let l = &lines[i];
        let comment_only = l.is_code_blank() && !l.comment.is_empty();
        // Only a comment line (or attribute trailing comment) satisfies
        // the rule here — a justification trailing a *different* site's
        // code line stays bound to that site.
        if (comment_only || l.is_attribute()) && hit(l) {
            return true;
        }
        let continues = if comment_only || l.is_attribute() || annotation_carrier(l) {
            true
        } else if extra_site(l) {
            // One adjacent sibling site may share the comment (stacked
            // `unsafe impl`s, the two orderings of a `compare_exchange`);
            // longer chains each need their own justification.
            extra_hops += 1;
            extra_hops <= 1
        } else {
            false
        };
        if !continues {
            return false;
        }
        seen += 1;
    }
    false
}

/// Lines that may sit between a site and its justification without
/// breaking contiguity: fragments of a statement that rustfmt wrapped —
/// argument lines (`cur,`), method-chain links (`.iter()`), an opening
/// `foo(` or `if x {`. A justification covers the whole statement it sits
/// above, so the scan walks through anything that does not *end* a
/// statement (`;`), close a block (`}`), or leave the line blank.
fn annotation_carrier(l: &SourceLine) -> bool {
    let t = l.code.trim();
    !t.is_empty() && !t.ends_with(';') && !t.ends_with('}')
}

/// Invariant 1: every `unsafe` keyword (block, fn, impl, trait) carries a
/// `// SAFETY:` comment — or, for `unsafe fn`, a `# Safety` doc section —
/// on the line or contiguously above it.
pub fn check_safety(path: &str, lines: &[SourceLine]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if find_word(&line.code, "unsafe").is_empty() {
            continue;
        }
        let ok = annotated(lines, idx, &["SAFETY:", "# Safety"], |l| {
            !find_word(&l.code, "unsafe").is_empty()
        });
        if !ok {
            out.push(Finding {
                check: Check::Safety,
                path: path.to_string(),
                line: line.number,
                message: "`unsafe` without a `// SAFETY:` justification".to_string(),
            });
        }
    }
    out
}

/// The relaxed orderings that demand justification. `SeqCst` is exempt:
/// it is the conservative default, so requiring a comment would only
/// invite downgrades.
const WEAK_ORDERINGS: &[&str] =
    &["Ordering::Relaxed", "Ordering::Acquire", "Ordering::Release", "Ordering::AcqRel"];

/// Does this code channel mention any non-`SeqCst` ordering token? Shared
/// with the atomics pairing pass, which uses it to decide whether a site
/// needs an annotation at all.
pub fn has_weak_ordering_code(code: &str) -> bool {
    WEAK_ORDERINGS.iter().any(|o| code.contains(o))
}

fn has_weak_ordering(code: &str) -> bool {
    has_weak_ordering_code(code)
}

/// Invariant 2: in the concurrency crates, every non-`SeqCst` ordering is
/// justified by a `// ORDERING:` comment. Test code is exempt (tests use
/// `Relaxed` counters to assert totals, not to synchronize).
pub fn check_ordering(path: &str, lines: &[SourceLine]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || !has_weak_ordering(&line.code) {
            continue;
        }
        let ok = annotated(lines, idx, &["ORDERING:"], |l| has_weak_ordering(&l.code));
        if !ok {
            out.push(Finding {
                check: Check::Ordering,
                path: path.to_string(),
                line: line.number,
                message: "non-SeqCst atomic ordering without an `// ORDERING:` justification"
                    .to_string(),
            });
        }
    }
    out
}

/// The panic-shaped calls frozen by the allowlist.
const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!"];

/// Count panic-shaped sites per pattern on non-test lines, with the line
/// numbers of every site (for reporting the overflow).
pub fn panic_sites(lines: &[SourceLine]) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for line in lines {
        if line.in_test {
            continue;
        }
        for pat in PANIC_PATTERNS {
            for _ in 0..line.code.matches(pat).count() {
                out.push((line.number, *pat));
            }
        }
    }
    out
}

/// Invariant 3: no `unwrap()` / `expect()` / `panic!` in library-crate
/// code beyond the per-file counts frozen in the allowlist. Existing debt
/// cannot grow; new files start at zero.
pub fn check_panics(path: &str, lines: &[SourceLine], allowed: &Allowlist) -> Vec<Finding> {
    let sites = panic_sites(lines);
    let budget = allowed.limit(path);
    if sites.len() <= budget {
        return Vec::new();
    }
    sites
        .iter()
        .skip(budget)
        .map(|&(line, pat)| Finding {
            check: Check::Panic,
            path: path.to_string(),
            line,
            message: format!(
                "`{pat}` site exceeds the {budget} frozen in lint-allow.txt \
                 ({} found) — return an error instead, or shrink debt elsewhere \
                 in this file first",
                sites.len()
            ),
        })
        .collect()
}

/// The frozen-debt allowlist: `path panic <count>` lines, `#` comments.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    limits: BTreeMap<String, usize>,
}

impl Allowlist {
    /// Parse the allowlist text. Unknown check names and malformed lines
    /// are reported as findings against the allowlist file itself rather
    /// than silently ignored — a typo must not unfreeze debt.
    pub fn parse(text: &str, own_path: &str) -> (Self, Vec<Finding>) {
        let mut limits = BTreeMap::new();
        let mut findings = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                [path, check, count] if *check == Check::Panic.label() => {
                    count.parse::<usize>().ok().map(|n| ((*path).to_string(), n))
                }
                _ => None,
            };
            match parsed {
                Some((path, n)) => {
                    limits.insert(path, n);
                }
                None => findings.push(Finding {
                    check: Check::Panic,
                    path: own_path.to_string(),
                    line: i + 1,
                    message: format!("malformed allowlist entry {line:?} (want `path panic N`)"),
                }),
            }
        }
        (Self { limits }, findings)
    }

    /// Frozen site count for `path` (0 when unlisted).
    pub fn limit(&self, path: &str) -> usize {
        self.limits.get(path).copied().unwrap_or(0)
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

/// Invariant 4: every dependency in every manifest is a workspace-internal
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
/// probe fast path small enough to inline into the batch loop (DESIGN §10).
pub const COLD_PATHS: &[(&str, &str, &str)] = &[
    ("crates/hashtbl/src/fixed.rs", "probe_collision", "#[inline(never)]"),
    ("crates/hashtbl/src/grow.rs", "grow", "#[cold]"),
];

/// Invariant 5: the out-of-line collision paths keep their markers.
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
    fn safety_check_accepts_same_line_and_above() {
        let src = "\
// SAFETY: fine above
unsafe { a(); }
let x = unsafe { b() }; // SAFETY: fine same line
unsafe { c(); }
";
        let f = check_safety("f.rs", &scan(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn safety_check_covers_stacked_unsafe_impls() {
        let src = "\
// SAFETY: sharding contract
unsafe impl Sync for T {}
unsafe impl Send for T {}
";
        assert!(check_safety("f.rs", &scan(src)).is_empty());
    }

    #[test]
    fn safety_accepts_doc_safety_section_for_unsafe_fn() {
        let src = "\
/// Does things.
///
/// # Safety
/// Caller must uphold X.
pub unsafe fn danger() {}
";
        assert!(check_safety("f.rs", &scan(src)).is_empty());
    }

    #[test]
    fn attr_does_not_mask_missing_safety() {
        let src = "#[inline]\nunsafe fn f() {}\n";
        assert_eq!(check_safety("f.rs", &scan(src)).len(), 1);
    }

    #[test]
    fn ordering_check_flags_bare_relaxed_outside_tests() {
        let src = "\
a.load(Ordering::Relaxed);
b.store(1, Ordering::Release); // ORDERING: publishes init
#[cfg(test)]
mod tests {
    fn t() { c.fetch_add(1, Ordering::Relaxed); }
}
";
        let f = check_ordering("f.rs", &scan(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn ordering_comment_covers_compare_exchange_pair() {
        let src = "\
// ORDERING: AcqRel on success pairs with the release in drop;
// relaxed failure reloads and retries.
x.compare_exchange_weak(
    cur,
    new,
    Ordering::AcqRel,
    Ordering::Relaxed,
)
";
        assert!(check_ordering("f.rs", &scan(src)).is_empty());
    }

    #[test]
    fn panic_check_freezes_counts() {
        let src = "a.unwrap();\nb.expect(\"x\");\npanic!(\"y\");\n";
        let lines = scan(src);
        let (allow, _) = Allowlist::parse("f.rs panic 2", "lint-allow.txt");
        let f = check_panics("f.rs", &lines, &allow);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        let (allow3, _) = Allowlist::parse("f.rs panic 3", "lint-allow.txt");
        assert!(check_panics("f.rs", &lines, &allow3).is_empty());
        assert_eq!(check_panics("f.rs", &lines, &Allowlist::default()).len(), 3);
    }

    #[test]
    fn panic_check_ignores_tests_and_strings() {
        let src = "\
let msg = \"do not panic!\";
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
";
        assert!(check_panics("f.rs", &scan(src), &Allowlist::default()).is_empty());
    }

    #[test]
    fn malformed_allowlist_lines_are_findings() {
        let (_, f) = Allowlist::parse("whoops\nf.rs panic notanumber\nf.rs safety 1", "allow");
        assert_eq!(f.len(), 3);
    }

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
        let with = "#[inline(never)]\nfn probe_collision() {}\n";
        assert!(check_cold_paths("crates/hashtbl/src/fixed.rs", &scan(with)).is_empty());
        let without = "#[inline]\nfn probe_collision() {}\n";
        let f = check_cold_paths("crates/hashtbl/src/fixed.rs", &scan(without));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("#[inline(never)]"));
        let gone = "fn something_else() {}\n";
        let f2 = check_cold_paths("crates/hashtbl/src/fixed.rs", &scan(gone));
        assert_eq!(f2.len(), 1);
        assert_eq!(f2[0].line, 0);
    }

    #[test]
    fn cold_path_check_skips_other_files() {
        assert!(check_cold_paths("crates/agg/src/fold.rs", &scan("fn grow() {}\n")).is_empty());
    }
}
