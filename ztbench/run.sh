#!/usr/bin/env bash
# Build zt-serve and zt_benchmark from source, then run the benchmark.
#
#   bash ztbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the repository root. Both binaries go to
# $CARGO_TARGET_DIR/release (default .bench_build/release), where
# zt_benchmark finds zt-serve next to itself. Build output goes to
# stderr; the last line of stdout is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p zt-serve --bin zt-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/zt_benchmark" run --out "$here/out" "$@"
