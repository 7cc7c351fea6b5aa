//! CLI entry point: `cargo run -p hsa-lint [-- <root>]`.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "hsa-lint — workspace protocol analyzer\n\n\
                     USAGE: hsa-lint [ROOT]\n\n\
                     Walks src/ and crates/*/src from ROOT (default: the enclosing\n\
                     workspace) and enforces the invariants DESIGN.md §12 leaves to\n\
                     it: machine-checked ORDERING protocol annotations on weak atomics\n\
                     (presence, pairing, publication), an acyclic workspace lock\n\
                     graph, cold-path markers. What clippy and cargo can say (SAFETY\n\
                     comments, panic-free library code, leaked guards, std-only\n\
                     dependencies) is theirs: run scripts/lint.sh for all of it."
                );
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("hsa-lint: unknown argument {other:?} (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("hsa-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match hsa_lint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("hsa-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    match hsa_lint::run(&root) {
        Ok(report) if report.findings.is_empty() => {
            println!(
                "hsa-lint: clean ({}: {} atomic sites, {} lock-order edges)",
                root.display(),
                report.atomic_sites,
                report.lock_edges
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for f in &report.findings {
                println!("{f}");
            }
            eprintln!("hsa-lint: {} finding(s)", report.findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hsa-lint: {e}");
            ExitCode::from(2)
        }
    }
}
