#!/usr/bin/env bash
# The bench-smoke harness CI runs (and the local verify recipe reuses):
# every gated experiment scenario in one list, each with its
# per-scenario baseline artifact when one is checked in, plus the
# loadgen client smoke over both transports. Every scenario exits
# nonzero on a regression, so this script failing IS the gate.
#
# Usage: scripts/bench_smoke.sh [OUT_DIR]   (default: bench-out)
# Run from the repo root (CI does); baselines are the checked-in
# BENCH_*.json files at the root.
set -euo pipefail

out="${1:-bench-out}"

# scenario:baseline — an empty baseline means the scenario gates on its
# own built-in thresholds (deterministic seeds), not a checked-in run.
#
#   warmstart      cold vs warm-started ACO on edit sessions  → BENCH_2.json
#   sharding       router over 1/2/4 shards vs one process    → BENCH_3.json
#   transport      TCP vs HTTP/1.1 framing parity             → BENCH_5.json
#   portfolio      solver portfolio vs ACO-only anytime gate  → BENCH_7.json
#   durability     durable cache + replication fault harness  → BENCH_8.json
#   reshard        live shard join/drain elastic fleet gate   → BENCH_9.json
#   live           streaming edit sessions: 10k idle + 8 hot push gates → BENCH_10.json
#   observability  instrumented vs telemetry-off colony       → BENCH_6.json (baseline-gated)
#   hotpath        zero-alloc colony vs reference path        → BENCH_4.json (baseline-gated)
#   fig4..fig9     the paper's figures on a 200-graph slice    (built-in checks)
#   extended       paper set + Coffman-Graham + network simplex (built-in checks)
scenarios=(
    "warmstart:"
    "sharding:"
    "transport:"
    "portfolio:"
    "durability:"
    "reshard:"
    "live:"
    "observability:BENCH_6.json"
    "hotpath:BENCH_4.json"
)

# The paper's claims (Figs. 4-9 and the extended set), each gated by its
# own `check:` lines; 200 graphs keep every scenario to about a second.
figures=(fig4 fig5 fig6 fig7 fig8 fig9 extended)

for entry in "${scenarios[@]}"; do
    scenario="${entry%%:*}"
    baseline="${entry#*:}"
    args=("$scenario" --out "$out")
    if [ -n "$baseline" ]; then
        args+=(--baseline "$baseline")
    fi
    echo "== experiments ${args[*]}"
    cargo run --release -p antlayer-bench --bin experiments -- "${args[@]}"
done

for figure in "${figures[@]}"; do
    echo "== experiments $figure --total 200 --out $out"
    cargo run --release -p antlayer-bench --bin experiments -- "$figure" --total 200 --out "$out"
done

# loadgen smoke over both framings (concurrent clients, in-process
# server): exercises the client/transport stack the way operators run
# it, beyond the sequential parity gates above.
echo "== loadgen smoke"
cargo run --release -p antlayer-bench --bin loadgen -- --mode mixed --requests 60 --clients 3 --transport tcp
cargo run --release -p antlayer-bench --bin loadgen -- --mode mixed --requests 60 --clients 3 --transport http
cargo run --release -p antlayer-bench --bin loadgen -- --mode edit --requests 40 --clients 2 --transport http
cargo run --release -p antlayer-bench --bin loadgen -- --mode live --requests 24 --clients 2 --idle 50

echo "bench smoke: all scenarios passed; artifacts in $out/"
