#!/usr/bin/env bash
# Full verification gate: tier-1 (release build + tests, run over the
# whole workspace), formatting, a warning-free clippy pass over every
# target in the workspace, and a release build of the serving benchmark
# (`perfbench/`, its own workspace), so a change that breaks an item the
# benchmark uses fails here rather than in the benchmark run.
#
# Usage: scripts/verify.sh [--quick] [--bench-smoke]
#   --quick        skip the release builds (debug tests + lints only)
#   --bench-smoke  additionally run the serving benchmark's own tests
#                  (every workload briefly, every answer checked); fail
#                  unless the `experiments` binary reprints the E1-E12
#                  tables in bench_tables_snapshot.txt byte for byte;
#                  run every registered experiment once in quick mode
#                  (scripts/bench_snapshot.sh --quick: the registry in
#                  crates/bench/src/registry.rs owns every verdict and
#                  floor, and fails the run naming each failed check);
#                  replay the committed protocol-tree certificate
#                  through the independent `ccmx cc --verify` checker;
#                  then boot a real `ccmx serve`, warm it up over the wire,
#                  and fail unless its metrics scrape shows live request,
#                  pool and CRT counters; then run a seeded chaos soak
#                  (`ccmx chaos --server`), which exits non-zero on any
#                  metered-bit divergence under fault injection; finally
#                  boot a 2-shard cluster (`ccmx shard` x2 + a fronting
#                  `ccmx coordinator`), drive keyed traffic through it,
#                  and fail unless every shard shows a nonzero
#                  ccmx_cluster_routed_total and the busiest shard saw
#                  no more than 2x the quietest one's share

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
BENCH_SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        --bench-smoke) BENCH_SMOKE=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [[ "$QUICK" -eq 0 ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release
    echo "==> cargo build --release perfbench (the benchmark builds against this tree)"
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
fi

echo "==> cargo test --workspace -q (tier-1 plus every crate's tests)"
cargo test --workspace -q

if [[ "$BENCH_SMOKE" -eq 1 ]]; then
    echo "==> perfbench tests (every workload briefly, answers checked)"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    echo "==> experiments E1-E12 (exact match against bench_tables_snapshot.txt)"
    cargo run --release -p ccmx-bench --bin experiments | diff -u bench_tables_snapshot.txt -
    echo "==> bench_snapshot --quick (every registered experiment, every check)"
    scripts/bench_snapshot.sh --quick

    echo "==> certificate replay gate (committed protocol tree, independent checker)"
    ./target/release/ccmx cc --verify tests/data/equality8.cert

    echo "==> live server metrics gate"
    SRV_LOG=$(mktemp)
    ./target/release/ccmx serve 127.0.0.1:0 > "$SRV_LOG" &
    SRV_PID=$!
    trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT
    ADDR=""
    for _ in $(seq 1 50); do
        ADDR=$(sed -n 's/^ccmx protocol-lab server on \([0-9.:]*\).*/\1/p' "$SRV_LOG")
        [[ -n "$ADDR" ]] && break
        sleep 0.1
    done
    if [[ -z "$ADDR" ]]; then
        echo "FAIL: ccmx serve did not come up" >&2
        cat "$SRV_LOG" >&2
        exit 1
    fi
    ./target/release/ccmx client "$ADDR" ping
    # Warm-up: a multi-spec batch exercises the shared worker pool, a
    # remote singularity decision exercises the certified CRT path.
    ./target/release/ccmx client "$ADDR" batch 4 2 6 > /dev/null
    ./target/release/ccmx client "$ADDR" singular "1,2;2,4" > /dev/null
    STATS=$(./target/release/ccmx client "$ADDR" stats)
    for series in ccmx_server_requests_total ccmx_pool_tasks_total ccmx_crt_certified_total; do
        if ! grep -Eq "^${series} [0-9]*[1-9][0-9]*$" <<< "$STATS"; then
            echo "FAIL: metrics scrape lacks a live (nonzero) ${series}" >&2
            grep -E "^${series}" <<< "$STATS" >&2 || true
            exit 1
        fi
        grep -E "^${series} " <<< "$STATS"
    done
    kill "$SRV_PID" 2>/dev/null || true
    trap - EXIT

    echo "==> chaos soak (seeded fault injection, zero-divergence gate)"
    ./target/release/ccmx chaos --trials 4 --seed 7 --level aggressive --server

    echo "==> cluster routing gate (2 shards + coordinator)"
    CLUSTER_PIDS=()
    cleanup_cluster() {
        for pid in "${CLUSTER_PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    }
    trap cleanup_cluster EXIT
    SHARD_ADDRS=()
    for name in verify-a verify-b; do
        SLOG=$(mktemp)
        ./target/release/ccmx shard 127.0.0.1:0 --name "$name" > "$SLOG" &
        CLUSTER_PIDS+=($!)
        SADDR=""
        for _ in $(seq 1 50); do
            SADDR=$(sed -n 's/^ccmx shard .* on \([0-9.:]*\) .*/\1/p' "$SLOG")
            [[ -n "$SADDR" ]] && break
            sleep 0.1
        done
        if [[ -z "$SADDR" ]]; then
            echo "FAIL: ccmx shard $name did not come up" >&2
            cat "$SLOG" >&2
            exit 1
        fi
        SHARD_ADDRS+=("$name=$SADDR")
    done
    CLOG=$(mktemp)
    ./target/release/ccmx coordinator 127.0.0.1:0 \
        --shard "${SHARD_ADDRS[0]}" --shard "${SHARD_ADDRS[1]}" > "$CLOG" &
    CLUSTER_PIDS+=($!)
    CADDR=""
    for _ in $(seq 1 50); do
        CADDR=$(sed -n 's/^ccmx coordinator on \([0-9.:]*\).*/\1/p' "$CLOG")
        [[ -n "$CADDR" ]] && break
        sleep 0.1
    done
    if [[ -z "$CADDR" ]]; then
        echo "FAIL: ccmx coordinator did not come up" >&2
        cat "$CLOG" >&2
        exit 1
    fi
    ./target/release/ccmx client "$CADDR" ping
    # Keyed traffic: a batch group fans out across replicas, the bounds
    # sweep walks distinct route keys so both shards take real load, and
    # the singularity run exercises the metered protocol path end-to-end.
    ./target/release/ccmx client "$CADDR" batch 4 2 8 > /dev/null
    for n in $(seq 5 2 67); do
        ./target/release/ccmx client "$CADDR" bounds "$n" 3 > /dev/null
    done
    ./target/release/ccmx client "$CADDR" singular "1,2;2,4" > /dev/null
    CSTATS=$(./target/release/ccmx client "$CADDR" stats)
    ROUTED=$(grep -E '^ccmx_cluster_routed_total\{shard="verify-[ab]"\} [0-9]+$' <<< "$CSTATS" || true)
    if [[ $(wc -l <<< "$ROUTED") -ne 2 ]]; then
        echo "FAIL: expected routed counters for both shards, got:" >&2
        echo "$ROUTED" >&2
        exit 1
    fi
    echo "$ROUTED"
    MIN=$(awk '{print $2}' <<< "$ROUTED" | sort -n | head -1)
    MAX=$(awk '{print $2}' <<< "$ROUTED" | sort -n | tail -1)
    if [[ "$MIN" -eq 0 ]]; then
        echo "FAIL: a shard received zero routed requests" >&2
        exit 1
    fi
    if (( MAX > 2 * MIN )); then
        echo "FAIL: shard imbalance ${MAX}/${MIN} exceeds the 2x gate" >&2
        exit 1
    fi
    cleanup_cluster
    trap - EXIT
fi

echo "==> verify: all gates passed"
