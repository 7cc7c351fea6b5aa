//! End-to-end tests: run the analyzer (library and binary) over the
//! fixture workspaces in `tests/fixtures/`, each seeded with one known
//! violation, and assert the exact findings and exit codes.

use hsa_lint::{run, Check};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint_bin(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hsa-lint")).arg(root).output().expect("spawn hsa-lint")
}

#[test]
fn clean_tree_has_no_findings_and_exits_zero() {
    let root = fixture("clean");
    assert_eq!(run(&root).unwrap().findings, vec![]);

    let out = lint_bin(&root);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("clean"), "stdout: {stdout}");
    assert!(stdout.contains("0 atomic sites, 0 lock-order edges"), "stdout: {stdout}");
}

#[test]
fn weak_ordering_is_flagged_only_in_scoped_crates() {
    let root = fixture("weak_ordering");
    let findings = run(&root).unwrap().findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    // Only the scoped crate's load is a finding; `crates/other` is silent.
    assert_eq!(findings[0].check, Check::Atomics);
    assert_eq!(findings[0].path, "crates/tasks/src/lib.rs");
    assert_eq!(findings[0].line, 4);
    assert!(findings[0].message.contains("without an `// ORDERING:`"), "{}", findings[0].message);
}

#[test]
fn lost_cold_path_markers_are_flagged() {
    let root = fixture("cold_path");
    let findings = run(&root).unwrap().findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].check, Check::ColdPath);
    assert_eq!(findings[0].path, "crates/hashtbl/src/grow.rs");
    assert_eq!(findings[0].line, 4);
    assert!(findings[0].message.contains("#[cold]"));
}

#[test]
fn unpaired_release_store_is_flagged() {
    let root = fixture("unpaired_release");
    let findings = run(&root).unwrap().findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].check, Check::Atomics);
    assert_eq!(findings[0].path, "crates/tasks/src/lib.rs");
    assert_eq!(findings[0].line, 7);
    assert!(findings[0].message.contains("unpaired `Release` write"), "{}", findings[0].message);

    assert_eq!(lint_bin(&root).status.code(), Some(1));
}

#[test]
fn relaxed_annotation_claiming_publication_is_flagged() {
    let root = fixture("relaxed_publication");
    let findings = run(&root).unwrap().findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].check, Check::Atomics);
    assert_eq!(findings[0].path, "crates/tasks/src/lib.rs");
    assert_eq!(findings[0].line, 7);
    assert!(findings[0].message.contains("claims publication"), "{}", findings[0].message);

    assert_eq!(lint_bin(&root).status.code(), Some(1));
}

#[test]
fn dangling_pairs_with_tag_is_flagged_once() {
    let root = fixture("dangling_pairs_with");
    let findings = run(&root).unwrap().findings;
    // The release/observe-side pair resolves; only the phantom
    // `flag.publish` reference is a finding.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].check, Check::Atomics);
    assert_eq!(findings[0].path, "crates/tasks/src/lib.rs");
    assert_eq!(findings[0].line, 7);
    assert!(
        findings[0].message.contains("dangling pairs-with tag `flag.publish`"),
        "{}",
        findings[0].message
    );

    assert_eq!(lint_bin(&root).status.code(), Some(1));
}

#[test]
fn cross_crate_lock_order_cycle_is_one_deadlock_finding() {
    let root = fixture("lock_cycle");
    let findings = run(&root).unwrap().findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].check, Check::LockOrder);
    // Anchored at the first witness edge (sorted by from/to):
    // reg_a -> reg_b, observed at the second `.lock()` in crates/serve.
    assert_eq!(findings[0].path, "crates/serve/src/lib.rs");
    assert_eq!(findings[0].line, 12);
    assert!(findings[0].message.contains("potential deadlock"), "{}", findings[0].message);
    assert!(findings[0].message.contains("reg_a -> reg_b"), "{}", findings[0].message);
    assert!(findings[0].message.contains("reg_b -> reg_a"), "{}", findings[0].message);

    assert_eq!(lint_bin(&root).status.code(), Some(1));
}

#[test]
fn nonexistent_root_is_a_usage_error() {
    let out = lint_bin(&fixture("no_such_fixture"));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn the_real_workspace_is_clean() {
    // The repo itself must pass its own analyzer — the same invocation CI
    // runs. Walk up from the lint crate to the enclosing workspace root.
    let root = hsa_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("enclosing workspace root");
    let report = run(&root).unwrap();
    assert_eq!(report.findings, vec![], "the tree no longer passes hsa-lint");
    // Clean must not mean blind: the tree has weak atomics and nested locks.
    assert!(report.atomic_sites > 0 && report.lock_edges > 0, "{report:?}");
}
