#!/usr/bin/env bash
# Pre-push check: everything CI's `check` + `lint` jobs run, in one pass.
#
#   ./scripts/lint.sh
#
# 1. hsa-lint tests — analyzer unit tests + fixture workspaces
#                     (each seeded with one known violation)
# 2. hsa-lint      — workspace safety analyzer (SAFETY/ORDERING protocol
#                    annotations, atomic pairing, lock-order graph, RAII
#                    leaks, frozen panic debt, std-only manifests,
#                    cold-path markers; DESIGN.md §12 and §17)
# 3. JSON smoke    — the --format json report parses and carries the
#                    stable schema_version
# 4. rustfmt       — formatting, check-only
# 5. clippy        — all targets, warnings are errors
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> hsa-lint self-tests (unit + fixtures)"
cargo test --release -q -p hsa-lint

echo "==> hsa-lint"
cargo run --release -q -p hsa-lint

echo "==> hsa-lint --format json (schema smoke check)"
cargo run --release -q -p hsa-lint -- . --format json | python3 -c '
import json, sys
report = json.load(sys.stdin)
assert report["schema_version"] == 1, report
assert report["count"] == len(report["findings"]), report
print("schema_version 1, %d finding(s)" % report["count"])
'

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "lint.sh: all clean"
