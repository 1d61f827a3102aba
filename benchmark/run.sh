#!/usr/bin/env bash
# The one command: builds the benchmark (which builds `mqdiv` itself before
# it measures anything) and runs it. With no arguments: all four workloads
# plus the traced pass. See README.md for the other modes.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
# Everything cargo does is relative to the repository root, so a relative
# CARGO_TARGET_DIR means one directory for both builds.
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
export MQD_BENCH_OUT="$here/out"
if [ -z "${MQD_BENCH_GIT_REV:-}" ]; then
    MQD_BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    export MQD_BENCH_GIT_REV
fi
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
