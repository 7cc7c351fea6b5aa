//! `hsa-lint` — the workspace safety analyzer.
//!
//! A std-only, dependency-free static-analysis pass over the workspace
//! source that enforces the engineering invariants PRs 1–4 established but
//! nothing previously checked:
//!
//! 1. **safety** — every `unsafe` block / fn / impl carries a `// SAFETY:`
//!    justification (or a `# Safety` doc section) on or contiguously above
//!    the site. The hot paths are hand-tuned unsafe code (non-temporal
//!    stores, SIMD probe scans, sharded `UnsafeCell` recorders); an
//!    unjustified `unsafe` is where an aliasing bug silently corrupts
//!    aggregates instead of crashing.
//! 2. **ordering** — every non-`SeqCst` atomic ordering in the
//!    concurrency crates (`tasks`, `fault`, `obs`, `columnar`) carries an
//!    `// ORDERING:` justification naming what it pairs with.
//! 3. **panic** — no `unwrap()` / `expect()` / `panic!` in library-crate
//!    code beyond the per-file counts frozen in `lint-allow.txt`: existing
//!    debt cannot grow, new code returns errors.
//! 4. **deps** — every dependency in every manifest is an `hsa-*`
//!    path/workspace reference (the std-only contract).
//! 5. **cold-path** — the documented out-of-line collision paths in
//!    `hashtbl` keep their `#[inline(never)]` / `#[cold]` markers.
//!
//! v2 (DESIGN §17) layers cross-file *protocol* checks on the same
//! scanner — the per-site presence checks above say an annotation exists;
//! these say the annotations are mutually consistent:
//!
//! 6. **atomics** — `// ORDERING:` comments follow a machine-readable
//!    grammar (`<ord>[/<ord>] [; site: tag] [; pairs-with: field.tag] [—
//!    prose]`, parsed by [`parse_annotation`]); declared orderings match
//!    the code, `Release` writes have an acquire-side reader and vice
//!    versa (pooled by field name across files), `Relaxed`-only sites
//!    must not claim publication, and every `pairs-with` tag resolves to
//!    a declared `site:`.
//! 7. **lock-order** — `.lock()` / RwLock `.read()` / `.write()` nestings
//!    across the whole workspace form a graph (with one-hop intra-crate
//!    call resolution); a cycle is a potential-deadlock finding.
//! 8. **raii-leak** — budget-carrying guards (`Reservation`,
//!    `DiskReservation`, `QueryGrant`, `QueryHandle`) must not reach
//!    `mem::forget` / `ManuallyDrop::new` / `Box::leak` outside tests.
//!
//! The binary walks `src/` and `crates/*/src` from the workspace root,
//! prints `path:line: [check] message` findings (or a stable JSON report
//! with `--format json`, see [`render_json`]), and exits non-zero if
//! any. CI runs it in a dedicated lint job; `scripts/lint.sh` is the
//! pre-push entry point.

mod atomics;
mod checks;
mod locks;
mod raii;
mod scan;

pub use atomics::{check_annotations, check_pairing, extract_sites, parse_annotation, AtomicSite};
pub use checks::{
    check_cold_paths, check_manifest, check_ordering, check_panics, check_safety, panic_sites,
    Allowlist, Check, Finding, COLD_PATHS,
};
pub use locks::LockGraph;
pub use raii::{check_raii_leaks, GUARDED_TYPES};
pub use scan::{scan, SourceLine};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the frozen-debt allowlist at the workspace root.
pub const ALLOWLIST_FILE: &str = "lint-allow.txt";

/// Crate directories (workspace-root-relative) whose panic-shaped calls
/// are *not* linted: binaries and harnesses whose job is to print an error
/// and exit, plus this tool itself.
const PANIC_EXEMPT: &[&str] = &["crates/bench", "crates/cli", "crates/lint"];

/// Crate directories whose weak atomic orderings require justification.
/// Only these contain lock-free coordination (the columnar spill store
/// carries sequence, statistics, and disk-budget atomics); the rest of
/// the workspace has no atomics to misuse.
const ORDERING_SCOPED: &[&str] = &["crates/tasks", "crates/fault", "crates/obs", "crates/columnar"];

/// Root-relative path with `/` separators regardless of platform.
fn rel(root: &Path, path: &Path) -> String {
    let r = path.strip_prefix(root).unwrap_or(path);
    r.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

fn starts_with_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Collect every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The source roots the analyzer walks: `src/` plus every `crates/*/src`.
fn source_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
        members.sort();
        for m in members {
            if m.is_dir() {
                roots.push(m.join("src"));
            }
        }
    }
    Ok(roots)
}

/// Every manifest the deps check covers: the root `Cargo.toml` plus each
/// crate's.
fn manifests(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
        members.sort();
        for m in members {
            let manifest = m.join("Cargo.toml");
            if manifest.is_file() {
                out.push(manifest);
            }
        }
    }
    Ok(out)
}

/// Run every check over the workspace at `root`. Findings are sorted by
/// path, then line.
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    let allow_path = root.join(ALLOWLIST_FILE);
    let allow_text =
        if allow_path.is_file() { fs::read_to_string(&allow_path)? } else { String::new() };
    let (allow, mut findings) = Allowlist::parse(&allow_text, ALLOWLIST_FILE);

    // Workspace-wide accumulators: the v2 checks reason across files, so
    // per-file scans feed them and `finish()` runs after the walk.
    let mut lock_graph = LockGraph::default();
    let mut sites: Vec<AtomicSite> = Vec::new();

    for src_root in source_roots(root)? {
        let mut files = Vec::new();
        rust_files(&src_root, &mut files)?;
        for file in files {
            let path = rel(root, &file);
            let lines = scan(&fs::read_to_string(&file)?);
            findings.extend(check_safety(&path, &lines));
            if starts_with_any(&path, ORDERING_SCOPED) {
                findings.extend(check_ordering(&path, &lines));
                sites.extend(extract_sites(&path, &lines));
            }
            if !starts_with_any(&path, PANIC_EXEMPT) {
                findings.extend(check_panics(&path, &lines, &allow));
            }
            findings.extend(check_cold_paths(&path, &lines));
            findings.extend(check_raii_leaks(&path, &lines));
            lock_graph.add_file(&path, &lines);
        }
    }

    findings.extend(check_annotations(&sites));
    findings.extend(check_pairing(&sites));
    findings.extend(lock_graph.finish());

    for manifest in manifests(root)? {
        let path = rel(root, &manifest);
        findings.extend(check_manifest(&path, &fs::read_to_string(&manifest)?));
    }

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Render findings as the stable JSON document CI archives.
///
/// Schema (version 1):
///
/// ```json
/// {
///   "schema_version": 1,
///   "root": "<workspace root as given>",
///   "count": 2,
///   "findings": [
///     {"check": "atomics", "path": "crates/x/src/lib.rs",
///      "line": 10, "message": "..."}
///   ]
/// }
/// ```
///
/// Findings keep the sort order `run` produced (path, then line). The
/// encoder escapes `"`, `\`, and control characters; everything else
/// passes through as UTF-8.
pub fn render_json(root: &str, findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"root\": \"{}\",\n", esc(root)));
    out.push_str(&format!("  \"count\": {},\n", findings.len()));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"check\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            f.check,
            esc(&f.path),
            f.line,
            esc(&f.message)
        ));
    }
    if findings.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Render the current panic-site counts as allowlist lines — the
/// regeneration path documented in DESIGN §12. The output freezes *today's*
/// debt; committing it after removing sites ratchets the budget down.
pub fn print_allow(root: &Path) -> io::Result<String> {
    let mut out = String::from(
        "# Frozen panic-shaped-call debt (unwrap/expect/panic!) per library file.\n\
         # Maintained by `cargo run -p hsa-lint -- --print-allow`; counts may\n\
         # only decrease. New files get no entry and must be panic-free.\n",
    );
    for src_root in source_roots(root)? {
        let mut files = Vec::new();
        rust_files(&src_root, &mut files)?;
        for file in files {
            let path = rel(root, &file);
            if starts_with_any(&path, PANIC_EXEMPT) {
                continue;
            }
            let sites = panic_sites(&scan(&fs::read_to_string(&file)?));
            if !sites.is_empty() {
                out.push_str(&format!("{path} panic {}\n", sites.len()));
            }
        }
    }
    Ok(out)
}

/// Locate the workspace root: walk up from `start` to the first directory
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_paths_use_forward_slashes() {
        let root = Path::new("/ws");
        let file = Path::new("/ws/crates/x/src/lib.rs");
        assert_eq!(rel(root, file), "crates/x/src/lib.rs");
    }

    #[test]
    fn exempt_prefixes_match_whole_crates() {
        assert!(starts_with_any("crates/bench/src/lib.rs", PANIC_EXEMPT));
        assert!(starts_with_any("crates/cli/src/main.rs", PANIC_EXEMPT));
        assert!(!starts_with_any("crates/core/src/exec.rs", PANIC_EXEMPT));
        assert!(starts_with_any("crates/tasks/src/pool.rs", ORDERING_SCOPED));
        assert!(starts_with_any("crates/columnar/src/store.rs", ORDERING_SCOPED));
        assert!(!starts_with_any("crates/hashtbl/src/fixed.rs", ORDERING_SCOPED));
    }
}
