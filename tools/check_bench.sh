#!/usr/bin/env bash
# The bench-trajectory gate: smoke-runs the substrate_scale bench at the
# tiny tier and diffs its record against the committed BENCH_tiny.json with
# `itm obs report --baseline`. The record is a metrics registry export:
# deterministic values (counts, bytes, hashes) must match exactly, and
# wall-clock values (timings, qps, RSS) must lie within the report's ratio
# band (x25 over a 50-unit noise floor); a committed key the fresh record
# lacks fails too. Then runs the bench-labeled ctest subset, which repeats
# the diff and checks that doctored records fail it.
#
# The medium-tier record (BENCH_medium.json) is regenerated manually when
# the substrate changes:  build/bench/substrate_scale medium BENCH_medium.json
#
# Usage: tools/check_bench.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" --target substrate_scale itm

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

"$BUILD_DIR/bench/substrate_scale" tiny "$SCRATCH/BENCH_tiny.json" \
    >/dev/null

"$BUILD_DIR/tools/itm" obs report "$SCRATCH/BENCH_tiny.json" \
    --baseline BENCH_tiny.json

ctest --test-dir "$BUILD_DIR" -L bench --output-on-failure -j"$(nproc)"
