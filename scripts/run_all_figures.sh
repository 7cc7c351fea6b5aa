#!/usr/bin/env bash
# Regenerate every figure of the paper into EXPERIMENTS_RESULTS/*.tsv.
#
# Usage: scripts/run_all_figures.sh [rows_log2]
#   rows_log2 defaults to 22 (2^22 rows ≈ 32 MiB per column); the paper
#   used 2^31-2^32 on a 40-core/256 GiB box — scale up if you have one.
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS=${1:-22}
OUT=EXPERIMENTS_RESULTS
mkdir -p "$OUT"

cargo build --release -p hsa-bench --bins

run() {
    local fig=$1; shift
    echo "=== $fig $* ==="
    ./target/release/"$fig" "$@" | tee "$OUT/$fig.tsv"
}

run fig01
run fig03 "$ROWS"
run fig04 "$ROWS"
run fig05 "$ROWS"
run fig06 "$ROWS" 4
run fig07 "$((ROWS - 1))"
run fig08 "$ROWS"
run fig09 "$ROWS"
run fig10 "$ROWS"
run fig11 "$ROWS"
run ablation_fill "$ROWS"

echo "All figures written to $OUT/"
