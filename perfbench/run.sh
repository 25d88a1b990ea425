#!/usr/bin/env bash
# Build the serving benchmark and run one workload:
#
#   bash perfbench/run.sh --workload <sing-stream|cc-contend|proto-live|routed-mix> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from anywhere inside a ccmx checkout; build output goes to
# $CARGO_TARGET_DIR (default .bench_build at the checkout root).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
