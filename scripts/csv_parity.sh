#!/usr/bin/env bash
# Run two `hsa` binaries over one set of generated CSVs and compare what
# each prints: stdout, stderr and the exit code, case by case.
#
#   scripts/csv_parity.sh [-d DIR] OLD_HSA NEW_HSA
#
# The CSVs are written to DIR (default $TMPDIR/hsa-csv-parity) by a seeded
# generator, so every run compares the same bytes. They cover numeric,
# string, mixed and composite keys, quoted fields with commas, quotes and
# newlines, CRLF line ends and blank lines, AVG, `--strategy hashing` and
# `partition:2`, one and two threads, K = 2^10 and 2^20, a value above
# 2^53, and malformed inputs (error text and exit class). Prints one line
# per case and exits 1 if any case differs, except `exact_above_2_53`:
# the binaries before the streamed CSV door print SUM/MIN/MAX through an
# f64, so that case is expected to differ and is shown in full.
set -euo pipefail

dir="${TMPDIR:-/tmp}/hsa-csv-parity"
while getopts "d:h" opt; do
    case "$opt" in
        d) dir=$OPTARG ;;
        *) sed -n '2,15p' "$0"; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] || { sed -n '2,15p' "$0"; exit 2; }
# The cases run from $dir: name the binaries by absolute path.
old=$(realpath "$1") new=$(realpath "$2")
mkdir -p "$dir"

python3 - "$dir" <<'PY'
import random, sys
d = sys.argv[1]

def write(name, header, rows, eol="\n"):
    with open(f"{d}/{name}", "w", newline="") as f:
        f.write(",".join(header) + eol)
        for r in rows:
            f.write(",".join(r) + eol)

def numeric(name, n, k, seed):
    rng = random.Random(seed)
    write(name, ["k", "v"], ([str(rng.randrange(k)), str(rng.randrange(1 << 32))] for _ in range(n)))

numeric("num_k10.csv", 1 << 16, 1 << 10, 1)
numeric("num_k20.csv", 1 << 21, 1 << 20, 2)

rng = random.Random(3)
cities = ["berlin", "münchen", "paris", "são paulo", "東京", "x y", ""]
write("strings.csv", ["city", "tag", "v"],
      ([rng.choice(cities), f"t{rng.randrange(300)}", str(rng.randrange(1000))] for _ in range(50_000)))

rng = random.Random(4)
def mixed():
    k = rng.randrange(500)
    return str(k) if rng.random() < 0.99 else f"m{k}"
write("mixed.csv", ["m", "n", "v"],
      ([mixed(), f" {rng.randrange(40)} ", str(rng.randrange(1 << 20))] for _ in range(60_000)))

rng = random.Random(5)
write("composite.csv", ["a", "b", "c", "v"],
      ([str(rng.randrange(64)), rng.choice(cities), str(rng.randrange(1 << 12)), str(rng.randrange(10**6))]
       for _ in range(1 << 18)))

rng = random.Random(6)
def quoted():
    pick = rng.randrange(5)
    return ['"a,b"', '"say ""hi"""', '"two\nlines"', 'plain', '"x"y'][pick]
rows = []
for i in range(30_000):
    rows.append([quoted(), str(rng.randrange(100)), str(rng.randrange(10**9))])
with open(f"{d}/quoted_crlf.csv", "w", newline="") as f:
    f.write("q,k,v\r\n")
    for i, r in enumerate(rows):
        f.write(",".join(r) + "\r\n")
        if i % 997 == 0:
            f.write("\r\n\n")

with open(f"{d}/above_2_53.csv", "w") as f:
    f.write("k,v\n1,9007199254740993\n")

bad = {
    "bad_ragged.csv": "k,v\n1,2\n3\n",
    "bad_quote.csv": "k,v\n1,\"2\n",
    "bad_empty.csv": "",
    "bad_blank.csv": "\n\r\n\n",
    "bad_empty_name.csv": "k,\n1,2\n",
    "bad_dup_name.csv": "k,k\n1,2\n",
    "bad_two_faults.csv": "k,v\n1\n2,3\n\"open\n",
    "bad_string_sum.csv": "k,v\n1,x\n",
}
for name, text in bad.items():
    with open(f"{d}/{name}", "w", newline="") as f:
        f.write(text)
with open(f"{d}/bad_utf8.csv", "wb") as f:
    f.write(b"k,v\n1,\xff\n")
PY

cases=(
    "num_k10 | num_k10.csv --group-by k --count --sum v --min v --max v --avg v"
    "num_k10_t1_hashing | num_k10.csv --group-by k --sum v --threads 1 --strategy hashing"
    "num_k10_partition2 | num_k10.csv --group-by k --count --avg v --strategy partition:2 --threads 2"
    "num_k20 | num_k20.csv --group-by k --count --sum v"
    "num_k20_t1 | num_k20.csv --group-by k --max v --avg v --threads 1"
    "num_k20_partition2 | num_k20.csv --group-by k --min v --strategy partition:2"
    "strings | strings.csv --group-by city --count --sum v --avg v"
    "strings_composite | strings.csv --group-by tag,city --max v"
    "strings_distinct | strings.csv --group-by city"
    "mixed | mixed.csv --group-by m --count --sum v"
    "mixed_trimmed_numeric | mixed.csv --group-by n,m --avg v --threads 1"
    "composite_3 | composite.csv --group-by a,b,c --count --sum v"
    "composite_repeated | composite.csv --group-by c,a,c --min v --strategy hashing"
    "composite_partition2 | composite.csv --group-by b,a --avg v --strategy partition:2"
    "quoted_crlf | quoted_crlf.csv --group-by q --count --sum v"
    "quoted_crlf_composite | quoted_crlf.csv --group-by k,q --avg v --threads 1"
    "exact_above_2_53 | above_2_53.csv --group-by k --sum v --max v"
    "bad_ragged | bad_ragged.csv --group-by k"
    "bad_quote | bad_quote.csv --group-by k"
    "bad_empty | bad_empty.csv --group-by k"
    "bad_blank | bad_blank.csv --group-by k"
    "bad_empty_name | bad_empty_name.csv --group-by k"
    "bad_dup_name | bad_dup_name.csv --group-by k"
    "bad_two_faults | bad_two_faults.csv --group-by k"
    "bad_string_sum | bad_string_sum.csv --group-by k --sum v"
    "bad_unknown_column | num_k10.csv --group-by nope --sum v"
    "bad_utf8 | bad_utf8.csv --group-by k"
    "bad_missing_file | missing.csv --group-by k"
)

differ=0
for case in "${cases[@]}"; do
    name=${case%% | *} argv=${case#* | }
    for side in old new; do
        bin=$old
        [ "$side" = new ] && bin=$new
        code=0
        # shellcheck disable=SC2086 # argv is a list of words
        (cd "$dir" && "$bin" $argv > "$name.$side.out" 2> "$name.$side.err") || code=$?
        echo "$code" > "$dir/$name.$side.code"
    done
    if cmp -s "$dir/$name.old.out" "$dir/$name.new.out" \
        && cmp -s "$dir/$name.old.err" "$dir/$name.new.err" \
        && cmp -s "$dir/$name.old.code" "$dir/$name.new.code"; then
        printf 'same      %-24s %s lines, exit %s\n' "$name" \
            "$(wc -l < "$dir/$name.new.out")" "$(cat "$dir/$name.new.code")"
    elif [ "$name" = exact_above_2_53 ]; then
        printf 'expected  %-24s\n' "$name"
        diff "$dir/$name.old.out" "$dir/$name.new.out" | sed 's/^/          /' || true
    else
        printf 'DIFFERS   %-24s\n' "$name"
        for part in out err code; do
            diff "$dir/$name.old.$part" "$dir/$name.new.$part" | head -5 | sed 's/^/          /' || true
        done
        differ=1
    fi
done
exit "$differ"
