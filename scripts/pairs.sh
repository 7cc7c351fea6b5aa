#!/usr/bin/env bash
# Alternating parent/change runs of one benchmark workload.
#
#   scripts/pairs.sh [-w WORKLOAD] [-s SEED] [-t SECONDS] [-n PAIRS]
#                    [-o OUT.tsv] [-d DIR] PARENT [CHANGE]
#
# PARENT and CHANGE are git revisions, or directories holding a checkout;
# CHANGE defaults to the working tree (tracked + untracked, unignored
# files). Each side is copied into DIR (default $TMPDIR/hsa-pairs), its
# `benchmark/` package built there once, offline, into a target directory
# of its own; then PAIRS pairs of
#
#   hsa-benchmark run --workload W --seed S --seconds T --trace 0
#
# run one after the other from each copy's root, the side that goes first
# alternating from pair to pair (the host drifts by several percent from
# minute to minute: only runs next to each other compare). One TSV row
# per run is appended to OUT.tsv; afterwards each side's median and
# quartiles and the count of pairs in which the change read better are
# printed, and appended to OUT.tsv as `#` lines.
set -euo pipefail

workload=lib_spill seed=42 seconds=20 pairs=10
out=pairs.tsv dir="${TMPDIR:-/tmp}/hsa-pairs"
while getopts "w:s:t:n:o:d:h" opt; do
    case "$opt" in
        w) workload=$OPTARG ;; s) seed=$OPTARG ;; t) seconds=$OPTARG ;;
        n) pairs=$OPTARG ;; o) out=$OPTARG ;; d) dir=$OPTARG ;;
        *) sed -n '2,21p' "$0"; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || { sed -n '2,21p' "$0"; exit 2; }
parent=$1 change=${2:-}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)

# Copy one side into $dir/<side>/src and build its benchmark binary.
prepare() {
    local side=$1 spec=$2 src=$dir/$1/src
    rm -rf "$src" && mkdir -p "$src"
    if [ -z "$spec" ]; then
        (cd "$repo" && git ls-files -z --cached --others --exclude-standard |
            tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$src"
    elif [ -d "$spec" ]; then
        (cd "$spec" && tar --exclude=./target --exclude=./benchmark/target -cf - .) |
            tar -xf - -C "$src"
    else
        git -C "$repo" archive "$spec" | tar -xf - -C "$src"
    fi
    CARGO_TARGET_DIR=$dir/$side/target cargo build --release --quiet --offline \
        --manifest-path "$src/benchmark/Cargo.toml"
}
prepare parent "$parent"
prepare change "$change"

[ -s "$out" ] || printf 'side\tpair\tworkload\tseed\tseconds\trow_ns\trows_per_s\tpeak_rss_mib\tsetup_s\tfailed\tattempted\n' >"$out"
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

# One run of one side: its result line becomes one TSV row.
run() {
    local side=$1 pair=$2
    (cd "$dir/$side/src" && "$dir/$side/target/release/hsa-benchmark" run \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 || true) |
        tail -n 1 |
        python3 -c '
import json, sys
side, pair, workload, seed, seconds = sys.argv[1:]
r = json.loads(sys.stdin.readline())
m = {k: v["value"] for k, v in r["metrics"].items()}
print(side, pair, workload, seed, seconds, m["row_ns"], m["rows_per_s"],
      m["peak_rss_mib"], m["setup_s"], r["failed"], r["attempted"], sep="\t")
' "$side" "$pair" "$workload" "$seed" "$seconds" | tee -a "$out" "$rows"
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do run "$side" "$pair"; done
done

python3 - "$rows" "$workload" "$seed" <<'EOF' | tee -a "$out"
import sys

def quartiles(xs):
    xs = sorted(xs)
    at = lambda q: xs[min(len(xs) - 1, max(0, round(q * (len(xs) - 1))))]
    return at(0.25), at(0.5), at(0.75)

runs = [line.rstrip("\n").split("\t") for line in open(sys.argv[1])]
cols = {"row_ns": (5, -1), "rows_per_s": (6, 1), "peak_rss_mib": (7, -1), "setup_s": (8, -1)}
print(f"# {sys.argv[2]} seed {sys.argv[3]}: {len(runs) // 2} pairs, "
      f"failed/attempted parent {sum(int(r[9]) for r in runs if r[0] == 'parent')}"
      f"/{sum(int(r[10]) for r in runs if r[0] == 'parent')}, "
      f"change {sum(int(r[9]) for r in runs if r[0] == 'change')}"
      f"/{sum(int(r[10]) for r in runs if r[0] == 'change')}")
for name, (col, better) in cols.items():
    side = {s: {r[1]: float(r[col]) for r in runs if r[0] == s} for s in ("parent", "change")}
    wins = sum(1 for p, v in side["parent"].items()
               if p in side["change"] and (side["change"][p] - v) * better > 0)
    losses = sum(1 for p, v in side["parent"].items()
                 if p in side["change"] and (side["change"][p] - v) * better < 0)
    (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(list(side[s].values())) for s in ("parent", "change"))
    print(f"# {name}: parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]"
          f"  ratio {cmed / pmed:.3f}  change better in {wins}, worse in {losses} of {len(side['parent'])}")
EOF
