#!/usr/bin/env bash
# The resident-server gate: end-to-end over the real binaries —
#
#   1. build two pinned snapshots (base and target) with `itm snapshot`,
#   2. produce an `.itmsd` delta with `itm snapshot-diff` and prove
#      `itm snapshot-apply` rebuilds the target byte-identically, then
#      diff the other way and prove the reverse delta restores the base,
#   3. run `itm served` on a unix socket, drive a session that queries,
#      hot-swaps via apply-delta mid-session, and queries again — the
#      post-swap answers must equal a fresh `itm serve` run over the
#      target snapshot (answer-hash equality: a delta-built epoch answers
#      like a fresh load), and `itm serve` over the base snapshot must
#      reproduce the committed golden answers byte for byte,
#   4. SIGTERM the server and require a graceful exit 0 with the socket
#      unlinked,
#   5. run the serve-labeled ctest subset (mmap/view equivalence, delta
#      property tests, session protocol with swaps and delta chains).
#
# Usage: tools/check_serve.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target itm served_tests server_tests

ITM="$BUILD_DIR/tools/itm"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# ---- 1. two pinned snapshots of the same world at different probe depths.
"$ITM" snapshot --scale tiny --seed 11 --out "$SCRATCH/base.itms" >/dev/null
"$ITM" snapshot --scale tiny --seed 12 --out "$SCRATCH/target.itms" >/dev/null

# ---- 2. diff + apply must be byte-identical to the fresh target.
"$ITM" snapshot-diff "$SCRATCH/base.itms" "$SCRATCH/target.itms" \
    --out "$SCRATCH/step.itmsd" >/dev/null
"$ITM" snapshot-apply "$SCRATCH/base.itms" "$SCRATCH/step.itmsd" \
    --out "$SCRATCH/applied.itms" >/dev/null
if ! cmp -s "$SCRATCH/applied.itms" "$SCRATCH/target.itms"; then
  echo "FAIL: snapshot-apply is not byte-identical to the target" >&2
  exit 1
fi
echo "delta apply byte-identical to the fresh target snapshot"

# The reverse step undoes every op of the forward one: its adds are the
# forward removes, its replacements swap the records back.
"$ITM" snapshot-diff "$SCRATCH/target.itms" "$SCRATCH/base.itms" \
    --out "$SCRATCH/undo.itmsd" >/dev/null
"$ITM" snapshot-apply "$SCRATCH/target.itms" "$SCRATCH/undo.itmsd" \
    --out "$SCRATCH/undone.itms" >/dev/null
if ! cmp -s "$SCRATCH/undone.itms" "$SCRATCH/base.itms"; then
  echo "FAIL: the reverse delta does not restore the base byte-identically" >&2
  exit 1
fi
echo "reverse delta restores the base snapshot byte-identically"

# A corrupted delta must be rejected (exit 4), leaving no output file.
python3 - "$SCRATCH/step.itmsd" "$SCRATCH/bad.itmsd" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], 'rb').read())
data[len(data) // 2] ^= 0x10
open(sys.argv[2], 'wb').write(bytes(data))
EOF
if "$ITM" snapshot-apply "$SCRATCH/base.itms" "$SCRATCH/bad.itmsd" \
    --out "$SCRATCH/never.itms" >/dev/null 2>&1; then
  echo "FAIL: corrupted delta was accepted" >&2
  exit 1
fi
echo "corrupted delta rejected"

# ---- 3. resident server: query, hot-swap under a live session, re-query.
QUERIES="stats
top-as 5
lookup 10.0.0.1"
SOCK="$SCRATCH/itm.sock"
"$ITM" served --snapshot "$SCRATCH/base.itms" --listen "$SOCK" \
    > "$SCRATCH/served.log" 2>&1 &
SERVED_PID=$!
for _ in $(seq 50); do
  [[ -S "$SOCK" ]] && break
  sleep 0.1
done
if ! [[ -S "$SOCK" ]]; then
  echo "FAIL: itm served did not create $SOCK" >&2
  cat "$SCRATCH/served.log" >&2
  exit 1
fi

# One session: pre-swap queries, the swap, post-swap queries.
cat > "$SCRATCH/session.py" <<'EOF'
import socket
import sys
sock = socket.socket(socket.AF_UNIX)
sock.connect(sys.argv[1])
sock.sendall(sys.stdin.buffer.read())
sock.shutdown(socket.SHUT_WR)
chunks = []
while True:
    chunk = sock.recv(65536)
    if not chunk:
        break
    chunks.append(chunk)
sys.stdout.buffer.write(b"".join(chunks))
EOF
{
  printf '%s\n' "$QUERIES"
  printf 'apply-delta %s\n' "$SCRATCH/step.itmsd"
  printf '%s\n' "$QUERIES"
  printf 'quit\n'
} | python3 "$SCRATCH/session.py" "$SOCK" > "$SCRATCH/session.out"

# The swap acknowledgement sits between the two query blocks.
if ! grep -q '^ok epoch=1 checksum=' "$SCRATCH/session.out"; then
  echo "FAIL: apply-delta was not acknowledged in-session" >&2
  cat "$SCRATCH/session.out" >&2
  exit 1
fi
N_QUERIES="$(printf '%s\n' "$QUERIES" | wc -l)"
head -n "$N_QUERIES" "$SCRATCH/session.out" > "$SCRATCH/pre.out"
tail -n +"$((N_QUERIES + 2))" "$SCRATCH/session.out" | head -n "$N_QUERIES" \
    > "$SCRATCH/post.out"

# Reference answers: `itm serve` (batch mode, mmap) over each snapshot.
printf '%s\n' "$QUERIES" > "$SCRATCH/queries.txt"
"$ITM" serve --snapshot "$SCRATCH/base.itms" \
    --queries "$SCRATCH/queries.txt" | tail -n "$N_QUERIES" \
    > "$SCRATCH/expect_pre.out"
"$ITM" serve --snapshot "$SCRATCH/target.itms" \
    --queries "$SCRATCH/queries.txt" | tail -n "$N_QUERIES" \
    > "$SCRATCH/expect_post.out"
if ! cmp -s "$SCRATCH/pre.out" "$SCRATCH/expect_pre.out"; then
  echo "FAIL: pre-swap answers diverge from itm serve over the base" >&2
  diff "$SCRATCH/expect_pre.out" "$SCRATCH/pre.out" >&2 || true
  exit 1
fi
if ! cmp -s "$SCRATCH/post.out" "$SCRATCH/expect_post.out"; then
  echo "FAIL: post-swap answers diverge from itm serve over the target" >&2
  diff "$SCRATCH/expect_post.out" "$SCRATCH/post.out" >&2 || true
  exit 1
fi
HASH_PRE="$(sha256sum < "$SCRATCH/pre.out" | cut -d' ' -f1)"
HASH_POST="$(sha256sum < "$SCRATCH/post.out" | cut -d' ' -f1)"
if [[ "$HASH_PRE" == "$HASH_POST" ]]; then
  echo "FAIL: pre- and post-swap answers are identical (swap had no effect)" >&2
  exit 1
fi
echo "hot swap under a live session: answer hashes match fresh snapshots"
echo "  pre-swap  $HASH_PRE"
echo "  post-swap $HASH_POST"

# The committed golden session; base.itms is its tiny seed-11 snapshot.
"$ITM" serve --snapshot "$SCRATCH/base.itms" \
    --queries tests/serve/golden/queries.txt > "$SCRATCH/golden.out"
if ! cmp -s tests/serve/golden/answers.txt "$SCRATCH/golden.out"; then
  echo "FAIL: itm serve diverges from tests/serve/golden/answers.txt" >&2
  diff tests/serve/golden/answers.txt "$SCRATCH/golden.out" >&2 || true
  exit 1
fi
echo "itm serve reproduces the golden answers"

# ---- 4. graceful shutdown: SIGTERM -> drain -> exit 0, socket unlinked.
kill -TERM "$SERVED_PID"
SERVED_EXIT=0
wait "$SERVED_PID" || SERVED_EXIT=$?
if [[ "$SERVED_EXIT" != 0 ]]; then
  echo "FAIL: itm served exited $SERVED_EXIT on SIGTERM (want 0)" >&2
  cat "$SCRATCH/served.log" >&2
  exit 1
fi
if [[ -e "$SOCK" ]]; then
  echo "FAIL: socket not unlinked on graceful shutdown" >&2
  exit 1
fi
echo "SIGTERM: graceful exit 0, socket unlinked"

# ---- 5. the serve-labeled test subset.
ctest --test-dir "$BUILD_DIR" -L serve --output-on-failure -j"$(nproc)"
