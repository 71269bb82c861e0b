#!/usr/bin/env bash
# Builds the benchmark and runs every workload untraced, then traced.
#   ./run.sh            full runs (12 s measured per workload, then 8 s traced)
#   ./run.sh --smoke    2 s per workload, correctness checks only, no trace
# Extra arguments after the mode go to `run` (for example `--seed 7`).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/fdqos-bench"
if [[ "${1:-}" == "--smoke" ]]; then
    shift
    exec "$bin" run --workload all --smoke "$@"
fi
"$bin" run --workload all "$@"
"$bin" trace --workload all "$@"
