//! CLI entry point: `cargo run -p hsa-lint [-- <root>] [--print-allow]`.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut print_allow = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--print-allow" => print_allow = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "hsa-lint: --format wants `text` or `json`, got {:?}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "hsa-lint — workspace safety analyzer\n\n\
                     USAGE: hsa-lint [ROOT] [--print-allow] [--format text|json]\n\n\
                     Walks src/ and crates/*/src from ROOT (default: the enclosing\n\
                     workspace) and enforces the invariants documented in DESIGN.md\n\
                     §12 and §17: SAFETY comments on unsafe, machine-checked ORDERING\n\
                     protocol annotations on weak atomics (pairing + publication),\n\
                     an acyclic workspace lock graph, no leaked budget reservations,\n\
                     frozen panic debt, std-only manifests, cold-path markers.\n\n\
                     --print-allow  print regenerated lint-allow.txt contents and exit\n\
                     --format json  machine-readable findings (schema_version 1)"
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

    if print_allow {
        return match hsa_lint::print_allow(&root) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("hsa-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    match hsa_lint::run(&root) {
        Ok(findings) => {
            if json {
                print!("{}", hsa_lint::render_json(&root.display().to_string(), &findings));
            } else if findings.is_empty() {
                println!("hsa-lint: clean ({})", root.display());
            } else {
                for f in &findings {
                    println!("{f}");
                }
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("hsa-lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("hsa-lint: {e}");
            ExitCode::from(2)
        }
    }
}
