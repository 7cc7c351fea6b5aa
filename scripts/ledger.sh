#!/usr/bin/env bash
# The size-and-surface ledger CHANGES.md reports per PR, from one rule set
# so two PRs counting the same commit read the same numbers.
#
#   ./scripts/ledger.sh [ROOT]          (default: the repo this script is in)
#
# Per crate (the root facade `src/` counts as a crate named `.`):
#   src       non-test lines: everything before the first unindented
#             `#[cfg(test)]` (the test module, not a cfg'd item inside an
#             impl) of each src/**/*.rs
#   src-test  in-source test lines: that line and everything after it
#   tests     lines of tests/**/*.rs (fixture workspaces excluded)
#   pub       public items: lines opening with `pub` + an item keyword
#             (fn, struct, enum, trait, type, const, static, mod, use) in
#             the non-test lines
#   unsafe    non-test lines with `unsafe` in code (blocks, fns, impls;
#             comments excluded)
# Workspace-wide: `env::var` reads outside tests, `--flags` named in the two
# USAGE texts, and `pub` fields of the four configuration structs.
# Plain grep/awk, no dependency.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Per file: non-test lines, test lines, public items, unsafe sites.
count_src() {
    awk '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { test++; next }
        { src++ }
        /^[[:space:]]*pub[[:space:]]+(async[[:space:]]+|const[[:space:]]+|unsafe[[:space:]]+)*(fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { items++ }
        {
            code = $0
            sub(/\/\/.*/, "", code)
            if (code ~ /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/) sites++
        }
        END { printf "%d %d %d %d", src, test, items, sites }
    ' "$@" /dev/null
}

printf '%-12s %7s %9s %7s %5s %7s\n' crate src src-test tests pub unsafe
total=(0 0 0 0 0)
for dir in . crates/*/; do
    dir="${dir%/}"
    [ -d "$dir/src" ] || continue
    mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
    read -r src test items sites <<<"$(count_src "${files[@]}")"
    tests=0
    if [ -d "$dir/tests" ]; then
        tests=$(find "$dir/tests" -name '*.rs' -not -path '*/fixtures/*' -exec cat {} + | wc -l)
    fi
    printf '%-12s %7d %9d %7d %5d %7d\n' "${dir#crates/}" "$src" "$test" "$tests" "$items" "$sites"
    row=("$src" "$test" "$tests" "$items" "$sites")
    for i in 0 1 2 3 4; do total[i]=$((total[i] + row[i])); done
done
printf '%-12s %7d %9d %7d %5d %7d\n' total "${total[@]}"

echo
mapfile -t all < <(find src crates/*/src -name '*.rs' | sort)
env_reads=$(awk '
    FNR == 1 { in_test = 0 }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test { code = $0; sub(/\/\/.*/, "", code); n += gsub(/env::var(_os)?\(/, "", code) }
    END { print n + 0 }' "${all[@]}")
echo "env::var reads        $env_reads"

# Distinct `--flag` names inside each `const …USAGE: &str = "…";` literal.
usage_flags() {
    awk '
        /const [A-Z_]*USAGE: &str/ { on = 1 }
        on { text = text $0 "\n" }
        on && /";[[:space:]]*$/ { on = 0 }
        END { print text }' "$1" | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u | wc -l
}
echo "CLI flags (hsa)       $(usage_flags crates/cli/src/args.rs)"
echo "CLI flags (hsa serve) $(usage_flags crates/cli/src/serve.rs)"

# `pub` fields between `pub struct NAME {` and its closing brace.
pub_fields() {
    awk -v name="$1" '
        $0 ~ "pub struct " name " \\{" { on = 1; next }
        on && /^}/ { on = 0 }
        on && /^[[:space:]]*pub [a-z_]+:/ { n++ }
        END { print n + 0 }' "${all[@]}"
}
for s in AggregateConfig ExecEnv ObsConfig SpillConfig; do
    printf 'pub fields %-16s %d\n' "$s" "$(pub_fields "$s")"
done
