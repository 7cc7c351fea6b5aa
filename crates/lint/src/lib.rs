//! `hsa-lint` — the workspace protocol analyzer.
//!
//! A std-only, dependency-free pass over the workspace source for the
//! invariants no installed toolchain lint can state (DESIGN.md §12 has the
//! full invariant → enforcer table; `unsafe` justification, panic-free
//! library code and leaked guards are clippy's, configured in the root
//! `clippy.toml` and run by `scripts/lint.sh`):
//!
//! 1. **atomics** — every non-`SeqCst` atomic access in the concurrency
//!    crates (`tasks`, `fault`, `obs`, `columnar`) carries an
//!    `// ORDERING:` comment in a machine-readable grammar
//!    (`<ord>[/<ord>] [; site: tag] [; pairs-with: field.tag] [— prose]`,
//!    parsed by [`parse_annotation`]); declared orderings match the code,
//!    `Release` writes have an acquire-side reader and vice versa (pooled
//!    by field name across files), `Relaxed`-only sites must not claim
//!    publication, and every `pairs-with` tag resolves to a declared
//!    `site:`.
//! 2. **lock-order** — `.lock()` nestings across the whole workspace form
//!    a graph (with one-hop intra-crate call resolution); a cycle is a
//!    potential-deadlock finding.
//! 3. **cold-path** — the documented out-of-line growth path in
//!    `hashtbl` keeps its `#[cold]` marker.
//!
//! The binary walks `src/` and `crates/*/src` from the workspace root,
//! prints `path:line: [check] message` findings, and exits non-zero if
//! any. `scripts/lint.sh` is the one entry point, pre-push and in CI; it
//! also holds the std-only contract, with `cargo tree`.

#![forbid(unsafe_code)]

mod atomics;
mod checks;
mod locks;
mod scan;

pub use atomics::{check_annotations, check_pairing, extract_sites, parse_annotation, AtomicSite};
pub use checks::{check_cold_paths, Check, Finding, COLD_PATHS};
pub use locks::LockGraph;
pub use scan::{scan, SourceLine};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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

/// The workspace's member directories: the root (whose `src/` is the
/// facade crate) plus every `crates/*`, sorted. A root without a manifest
/// is an error, not a clean run.
fn members(root: &Path) -> io::Result<Vec<PathBuf>> {
    if !root.join("Cargo.toml").is_file() {
        let why = format!("no Cargo.toml in {}", root.display());
        return Err(io::Error::new(io::ErrorKind::NotFound, why));
    }
    let mut out = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
        dirs.retain(|d| d.is_dir());
        dirs.sort();
        out.extend(dirs);
    }
    Ok(out)
}

/// What one run saw and found. The two counts are the analyzer's coverage:
/// a scanner that has gone blind also reports no findings.
#[derive(Debug)]
pub struct Report {
    /// Findings, sorted by path, then line.
    pub findings: Vec<Finding>,
    /// Atomic accesses extracted from the ordering-scoped crates.
    pub atomic_sites: usize,
    /// Distinct "holds `a` while acquiring `b`" pairs in the lock graph.
    pub lock_edges: usize,
}

/// Run every check over the workspace at `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    // The atomics and lock checks reason across files: per-file scans
    // feed these, and the checks run after the walk.
    let mut lock_graph = LockGraph::default();
    let mut sites: Vec<AtomicSite> = Vec::new();
    let mut findings = Vec::new();

    for member in &members(root)? {
        let mut files = Vec::new();
        rust_files(&member.join("src"), &mut files)?;
        for file in files {
            let path = rel(root, &file);
            let lines = scan(&fs::read_to_string(&file)?);
            if ORDERING_SCOPED.iter().any(|p| path.starts_with(p)) {
                sites.extend(extract_sites(&path, &lines));
            }
            findings.extend(check_cold_paths(&path, &lines));
            lock_graph.add_file(&path, &lines);
        }
    }

    findings.extend(check_annotations(&sites));
    findings.extend(check_pairing(&sites));
    let (lock_edges, cycles) = lock_graph.finish();
    findings.extend(cycles);

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(Report { findings, atomic_sites: sites.len(), lock_edges })
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
}
