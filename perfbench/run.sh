#!/usr/bin/env bash
# Builds the regpipe CLI (the daemon the serve workloads spawn) and the
# benchmark from source, then runs the benchmark from the repository root:
#
#   bash perfbench/run.sh --workload suite-small --seed 49626 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Build
# messages go to stderr; stdout carries only the benchmark's report, whose
# last line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin regpipe >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
