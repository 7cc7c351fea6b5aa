#!/usr/bin/env sh
# Build, test and smoke-run the benchmark package: what one CI job would
# run. The smoke run checks structure and correctness on small inputs with
# 2 s windows; its numbers are marked non-comparable.
set -eu
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
cargo run --release --offline --quiet -- run --smoke --traced
