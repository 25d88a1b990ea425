#!/usr/bin/env bash
# Regenerate the committed BENCH_<id>.json documents at the repo root.
#
# Every experiment, its checks and its floors are declared once, in
# crates/bench/src/registry.rs; this script only builds the `ccmx`
# binary (E18 spawns shard and coordinator processes from it) and hands
# its arguments to `bench_snapshot`, which prints every check and exits
# non-zero naming each one that failed.
#
# Usage: scripts/bench_snapshot.sh [--quick] [ID...]
#   --quick   one repetition of smaller workloads; writes nothing
#   ID...     run only these experiments (e14 ... e21); default all

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
exec cargo run --release -p ccmx-bench --bin bench_snapshot -- "$@"
