#!/usr/bin/env bash
# Builds `rwr` and the benchmark from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build products go to $CARGO_TARGET_DIR
# (default .bench_build); run files and span logs go to .bench_work.
# Cargo's output goes to stderr, so the last line of stdout is always the
# benchmark's JSON result.
set -euo pipefail

export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

[ -f Cargo.toml ] && [ -f perfbench/Cargo.toml ] || {
    echo "perfbench: run from the repository root (Cargo.toml and perfbench/ needed)" >&2
    exit 2
}
cargo build --release --quiet --offline -p resacc-cli --bin rwr >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --rwr "$CARGO_TARGET_DIR/release/rwr" --work .bench_work "$@"
