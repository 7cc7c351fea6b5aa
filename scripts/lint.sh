#!/usr/bin/env bash
# The one lint entry point: pre-push by hand, and CI's `check` job.
#
#   ./scripts/lint.sh
#
# 1. std-only       — cargo resolves the dependency graph offline
#                     (normal, build and dev edges) and every package in
#                     it is a local path: a registry or git dependency
#                     fails here, first, because every later step would
#                     fail to build without saying why
# 2. hsa-lint tests — analyzer unit tests + fixture workspaces
#                     (each seeded with one known violation)
# 3. hsa-lint       — what no toolchain lint can say: the ORDERING
#                     protocol on weak atomics, the lock-order graph,
#                     cold-path markers
# 4. rustfmt        — formatting, check-only
# 5. clippy         — all targets, warnings are errors; the workspace lint
#                     table and clippy.toml add SAFETY comments on every
#                     `unsafe` and no mem::forget / ManuallyDrop::new /
#                     Box::leak
# 6. clippy, libs   — no unwrap / expect / panic! in library code. Passed
#                     on the command line, not per crate, so a new crate
#                     is covered without a header to forget; the three
#                     excluded crates are the binaries and harnesses
#                     whose job is to print an error and exit.
# 7. rustdoc        — workspace docs with warnings as errors, so an
#                     intra-doc link to a deleted or private item fails
# 8. workflows      — every .github/workflows/*.yml loads with python3's
#                     yaml module (a file that does not parse runs no job);
#                     skipped with a notice where the module is missing
# DESIGN.md §12 has the invariant → enforcer table.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> std-only dependencies (cargo tree)"
packages=$(cargo tree --offline --workspace -e normal,build,dev --prefix none --format '{p}' |
    sed -e 's/ (\*)$//' -e '/^$/d' | sort -u)
external=$(grep -v ' (/' <<<"$packages" || true)
if [ -n "$external" ]; then
    echo "not a workspace path (the workspace is std-only):" >&2
    echo "$external" >&2
    exit 1
fi
echo "$(wc -l <<<"$packages") packages, each from a local path"

echo "==> hsa-lint self-tests (unit + fixtures)"
cargo test --release -q -p hsa-lint

echo "==> hsa-lint"
cargo run --release -q -p hsa-lint

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo clippy, library targets (deny unwrap / expect / panic!)"
cargo clippy --workspace --lib -q \
    --exclude hsa-cli --exclude hsa-bench --exclude hsa-lint \
    -- -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q

echo "==> workflow files load (python3 yaml)"
if python3 -c "import yaml" 2>/dev/null; then
    for f in .github/workflows/*.yml; do
        python3 -c 'import sys, yaml; yaml.safe_load(open(sys.argv[1]))' "$f"
    done
    echo "$(find .github/workflows -name '*.yml' | wc -l) workflow files load"
else
    echo "notice: python3 has no yaml module here; workflow files not checked"
fi

echo "lint.sh: all clean"
