#!/usr/bin/env bash
# The serve golden: tests/serve/golden/queries.txt asks every verb, every
# malformed-line error, and holds blank and `#` lines; answers.txt is its
# reply over `itm snapshot --scale tiny --seed 11`. This test regenerates
# the snapshot and the answers and byte-compares them with the golden, for
# each way into the one session loop: `itm serve` over the file, `itm
# served --stdio`, and one `itm served --listen` socket session.
#
# Usage: tests/serve/golden_test.sh <itm-binary> <work-dir>
set -euo pipefail

ITM="$1"
WORK="$2"
GOLDEN="$(cd "$(dirname "$0")/golden" && pwd)"
mkdir -p "$WORK"

# Compares one way's replies ($2) with the golden answers.
check() {
  if ! cmp "$GOLDEN/answers.txt" "$2"; then
    diff "$GOLDEN/answers.txt" "$2" >&2 || true
    echo "FAIL: $1 diverges from the golden answers" >&2
    exit 1
  fi
  echo "$1 reproduces the golden answers"
}

"$ITM" snapshot --scale tiny --seed 11 --out "$WORK/golden.itms" >/dev/null

"$ITM" serve --snapshot "$WORK/golden.itms" \
    --queries "$GOLDEN/queries.txt" > "$WORK/serve.out"
check "itm serve" "$WORK/serve.out"

# The same session through `itm served` on stdio...
"$ITM" served --snapshot "$WORK/golden.itms" --stdio \
    < "$GOLDEN/queries.txt" > "$WORK/stdio.out" 2> "$WORK/stdio.log"
check "itm served --stdio" "$WORK/stdio.out"

# ...and over one unix-socket connection.
SOCK_DIR="$(mktemp -d)"
SOCK="$SOCK_DIR/golden.sock"
"$ITM" served --snapshot "$WORK/golden.itms" --listen "$SOCK" \
    2> "$WORK/socket.log" &
SERVED_PID=$!
trap 'kill "$SERVED_PID" 2>/dev/null || true; rm -rf "$SOCK_DIR"' EXIT
for _ in $(seq 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.1
done
cat > "$WORK/session.py" <<'PY'
import socket
import sys
sock = socket.socket(socket.AF_UNIX)
sock.connect(sys.argv[1])
sock.sendall(sys.stdin.buffer.read())
sock.shutdown(socket.SHUT_WR)
while True:
    chunk = sock.recv(65536)
    if not chunk:
        break
    sys.stdout.buffer.write(chunk)
PY
python3 "$WORK/session.py" "$SOCK" < "$GOLDEN/queries.txt" \
    > "$WORK/socket.out"
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
check "an itm served socket session" "$WORK/socket.out"
