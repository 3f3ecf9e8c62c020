#!/usr/bin/env bash
# Build the deterministic-parallelism tests under ThreadSanitizer and run
# the tsan-labeled subset (executor unit tests, serial/parallel
# equivalence tests, the lazy rollup index under concurrent readers, and
# the resident server's session tests, most of which answer on a 2-thread
# executor). This is the data-race gate for src/net/executor.*, every
# sharded pipeline stage, the query engine's once-built index, and the
# concurrent answers inside a real `itm served` session.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DITM_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target executor_tests parallel_tests rollup_concurrency_tests \
    server_tests

# Fail on any race TSan reports, even if the test assertions still pass.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 abort_on_error=1}"
ctest --test-dir "$BUILD_DIR" -L tsan --output-on-failure -j"$(nproc)"
