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
#                  (every workload briefly, every answer checked), and
#                  run every criterion bench for exactly one
#                  iteration (CCMX_BENCH_SMOKE=1): compile + run sanity
#                  with no timing, so benches can't silently rot; check
#                  the E19 blocked-kernel verdict (the communication-
#                  avoiding dispatch must actually take the blocked path
#                  and its Hong-Kung I/O meter must report words); check
#                  the E20 search verdict (every benched CC(f) answer
#                  exact and config-independent, the canonical-rectangle
#                  memo actually hitting) and replay the committed
#                  protocol-tree certificate through the independent
#                  `ccmx cc --verify` checker; check the E21 store
#                  verdict (populate a data directory cold, restart the
#                  server on it, fail if recovery accepted zero records,
#                  if any warm answer recomputed or diverged, or if the
#                  warm storm ran below the 1.5x speedup floor); then
#                  boot a real `ccmx serve`, warm it up over the wire,
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
    echo "==> bench smoke (one iteration per bench, no timing)"
    CCMX_BENCH_SMOKE=1 cargo bench -p ccmx-bench
    echo "==> bench_snapshot --quick"
    cargo run --release -p ccmx-bench --bin bench_snapshot -- --quick > /dev/null
    echo "==> bench_snapshot --e15 --quick (incremental-path gate)"
    E15_OUT=$(cargo run --release -p ccmx-bench --bin bench_snapshot -- --e15 --quick)
    if ! grep -q '"incremental_ok": true' <<< "$E15_OUT"; then
        echo "FAIL: enumeration fell back to fresh evaluation" >&2
        grep -E "incremental_ok|cursor_points|update_steps|fresh_refreshes" <<< "$E15_OUT" >&2
        exit 1
    fi
    grep '"incremental_ok"' <<< "$E15_OUT"

    echo "==> bench_snapshot --e19 --quick (blocked-kernel dispatch gate)"
    E19_OUT=$(cargo run --release -p ccmx-bench --bin bench_snapshot -- --e19 --quick)
    if ! grep -q '"blocked_ok": true' <<< "$E19_OUT"; then
        echo "FAIL: blocked kernel dispatch silently fell back to scalar," >&2
        echo "      or the Hong-Kung I/O meter reported zero words under the E19 workload" >&2
        grep -E "blocked_ok|words_per_call|iomodel" <<< "$E19_OUT" >&2
        exit 1
    fi
    grep '"blocked_ok"' <<< "$E19_OUT"

    echo "==> bench_snapshot --e20 --quick (CC search exactness + memo gate)"
    E20_OUT=$(cargo run --release -p ccmx-bench --bin bench_snapshot -- --e20 --quick)
    if ! grep -q '"search_ok": true' <<< "$E20_OUT"; then
        echo "FAIL: CC(f) search answered inexactly, disagreed across configs," >&2
        echo "      or the canonical-rectangle memo never hit under the E20 workload" >&2
        grep -E "search_ok|workload|memo" <<< "$E20_OUT" >&2
        exit 1
    fi
    grep '"search_ok"' <<< "$E20_OUT"
    if ! grep -Eq '"ccmx_search_memo_hits_total [0-9]*[1-9][0-9]*"' <<< "$E20_OUT"; then
        echo "FAIL: E20 metrics show zero ccmx_search_memo_hits_total" >&2
        grep -E "ccmx_search_memo" <<< "$E20_OUT" >&2 || true
        exit 1
    fi
    grep -E "ccmx_search_memo_hits_total" <<< "$E20_OUT"

    echo "==> bench_snapshot --e21 --quick (warm-restart store gate)"
    E21_OUT=$(cargo run --release -p ccmx-bench --bin bench_snapshot -- --e21 --quick)
    if ! grep -q '"store_ok": true' <<< "$E21_OUT"; then
        echo "FAIL: warm restart recomputed a certified result, diverged from the" >&2
        echo "      cold answers, or dropped idempotent runs under the E21 workload" >&2
        grep -E "store_ok|warm_|recovered" <<< "$E21_OUT" >&2
        exit 1
    fi
    grep '"store_ok"' <<< "$E21_OUT"
    if ! grep -Eq 'ccmx_store_recovered_records_total\{store=..server..\} [0-9]*[1-9][0-9]*' <<< "$E21_OUT"; then
        echo "FAIL: E21 metrics show zero ccmx_store_recovered_records_total for the server store" >&2
        grep -E "ccmx_store_recovered" <<< "$E21_OUT" >&2 || true
        exit 1
    fi
    grep -E "ccmx_store_recovered_records_total" <<< "$E21_OUT"
    SPEEDUP21=$(grep -o '"warm_speedup": [0-9.]*' <<< "$E21_OUT" | awk '{print $2}')
    if ! awk -v s="$SPEEDUP21" 'BEGIN { exit !(s >= 1.5) }'; then
        echo "FAIL: warm-restart storm speedup $SPEEDUP21 below the 1.5x floor" >&2
        exit 1
    fi
    echo "warm_speedup: $SPEEDUP21"

    echo "==> certificate replay gate (committed protocol tree, independent checker)"
    cargo build --release --bin ccmx
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
