#!/usr/bin/env bash
# CLI checks of the serving commands over the tiny seed-11 snapshot:
#
#   1. `itm served --stdio` caps a line at 8,192 bytes like a socket
#      session: an overlong line gets exactly one error line and ends the
#      session.
#   2. `--metrics-out` writes the run's query count and the cache hit,
#      miss and eviction counts, under the same names for `itm serve`
#      and `itm served`.
#   3. Those counts are deterministic: the same queries sent through a
#      pipe in chunks with pauses (so the session answers them in
#      batches split by arrival) and through 4 threads export the same
#      deterministic metrics as a regular-file run on 1 thread.
#
# Usage: tests/serve/served_cli_test.sh <itm-binary> <work-dir>
set -euo pipefail

ITM="$1"
WORK="$2"
QUERIES="$(cd "$(dirname "$0")/golden" && pwd)/queries.txt"
mkdir -p "$WORK"

"$ITM" snapshot --scale tiny --seed 11 --out "$WORK/cli.itms" >/dev/null

# ---- 1. the line cap on stdio.
{
  printf 'stats\n'
  head -c 9000 /dev/zero | tr '\0' x
  printf '\nstats\n'
} > "$WORK/overlong.txt"
"$ITM" served --snapshot "$WORK/cli.itms" --stdio \
    < "$WORK/overlong.txt" > "$WORK/overlong.out" 2>/dev/null
EXPECTED_ERROR="error: line longer than 8192 bytes; closing session"
if [[ "$(wc -l < "$WORK/overlong.out")" != 2 ]] ||
    ! head -n 1 "$WORK/overlong.out" | grep -q '^stats ases=' ||
    [[ "$(tail -n 1 "$WORK/overlong.out")" != "$EXPECTED_ERROR" ]]; then
  echo "FAIL: an overlong stdio line must get exactly one error line" >&2
  head -c 300 "$WORK/overlong.out" >&2
  exit 1
fi
echo "itm served --stdio caps a line at 8192 bytes"

# ---- 2. --metrics-out on both commands.
"$ITM" serve --snapshot "$WORK/cli.itms" --queries "$QUERIES" \
    --metrics-out "$WORK/serve.json" > /dev/null 2>&1
"$ITM" served --snapshot "$WORK/cli.itms" --stdio \
    --metrics-out "$WORK/served.json" < "$QUERIES" > /dev/null 2>&1
ANSWERS="$(grep -c -v -e '^$' -e '^#' "$QUERIES")"
for json in serve served; do
  python3 - "$WORK/$json.json" "$ANSWERS" <<'PY'
import json
import sys
counters = json.load(open(sys.argv[1]))["metrics"]["deterministic"]["counters"]
queries = int(sys.argv[2])
names = ["serve.queries", "serve.cache.hits", "serve.cache.misses",
         "serve.cache.evictions"]
missing = [name for name in names if name not in counters]
if missing:
    sys.exit(f"FAIL: {sys.argv[1]} lacks {missing}")
if counters["serve.queries"] != queries:
    sys.exit(f"FAIL: serve.queries {counters['serve.queries']} != {queries}")
if counters["serve.cache.hits"] + counters["serve.cache.misses"] != queries:
    sys.exit("FAIL: cache hits + misses != queries")
PY
done
if ! cmp "$WORK/serve.json" "$WORK/served.json"; then
  echo "FAIL: itm serve and itm served write different metrics" >&2
  exit 1
fi
echo "itm serve and itm served write the query and cache counts"

# ---- 3. the counts do not depend on how the input arrives.
# Three passes over the golden queries with a `stats` after every third
# line: more distinct lines than the cache holds, and one hot line.
for _ in 1 2 3; do
  awk '{ print } NR % 3 == 0 { print "stats" }' "$QUERIES"
done > "$WORK/repeated.txt"
SIZE="$(wc -c < "$WORK/repeated.txt")"
"$ITM" served --snapshot "$WORK/cli.itms" --stdio --threads 1 \
    --cache-size 8 --metrics-out "$WORK/file.json" \
    < "$WORK/repeated.txt" > "$WORK/file.out" 2>/dev/null
{
  head -c $((SIZE / 3)) "$WORK/repeated.txt"
  sleep 0.3
  head -c $((2 * SIZE / 3)) "$WORK/repeated.txt" | tail -c +$((SIZE / 3 + 1))
  sleep 0.3
  tail -c +$((2 * SIZE / 3 + 1)) "$WORK/repeated.txt"
} | "$ITM" served --snapshot "$WORK/cli.itms" --stdio --threads 4 \
    --cache-size 8 --metrics-out "$WORK/pipe.json" \
    > "$WORK/pipe.out" 2>/dev/null
if ! cmp "$WORK/file.out" "$WORK/pipe.out"; then
  echo "FAIL: a chunked pipe session answers differently" >&2
  exit 1
fi
if ! cmp "$WORK/file.json" "$WORK/pipe.json"; then
  echo "FAIL: a chunked pipe session exports different metrics" >&2
  diff "$WORK/file.json" "$WORK/pipe.json" >&2 || true
  exit 1
fi
python3 - "$WORK/file.json" <<'PY'
import json
import sys
counters = json.load(open(sys.argv[1]))["metrics"]["deterministic"]["counters"]
if counters["serve.cache.hits"] == 0 or counters["serve.cache.evictions"] == 0:
    sys.exit(f"FAIL: the repeated stream must hit and evict: {counters}")
PY
echo "a chunked pipe session exports the counts of a file session"
