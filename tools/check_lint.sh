#!/usr/bin/env bash
# Build itm-lint and run the lint gate: the full determinism/concurrency
# static-analysis pass over src/, tools/, bench/, tests/ and examples/
# (rule fixtures excluded — they are deliberately violating inputs) plus
# the rule fixture tests. Zero unsuppressed findings and a suppression count
# within tools/lint/suppressions.budget are required to pass.
#
# The direct itm-lint run at the end prints --stats: live suppressions per
# rule and wall time per analysis pass, so a rule that regresses into
# quadratic behaviour shows up in CI logs before it hurts.
#
# Usage: tools/check_lint.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc)" --target itm-lint lint_rules_tests
ctest --test-dir "$BUILD_DIR" -L lint --output-on-failure -j"$(nproc)"

"$BUILD_DIR"/tools/lint/itm-lint \
  --budget tools/lint/suppressions.budget \
  --exclude tests/lint/fixtures \
  --stats \
  src tools bench tests examples
