#!/usr/bin/env bash
# Server smoke gate (DESIGN S24 + S26): boot the socket server, drive it with
# 8 concurrent scripted clients, and diff every client's transcript against a
# serial oracle run of the same scripts. Then the S26 reliability legs: a
# graceful-DRAIN-under-load run, and one point of the chaos network-injection
# fuzz when its binary is built.
#
# Snapshot isolation plus session-private buffers make each script's output
# a pure function of the script itself — concurrency must not be able to
# change a single byte of any transcript. The oracle therefore needs no
# special casing: it is the same clients, run one at a time.
#
# Usage: scripts/server_smoke.sh [path/to/query_shell] [path/to/chaos_fuzz]

set -euo pipefail

SHELL_BIN="${1:-build/examples/query_shell}"
CHAOS_BIN="${2:-build/tests/server_chaos_fuzz_test}"
CLIENTS=8

if [ ! -x "$SHELL_BIN" ]; then
  echo "server_smoke: no executable at $SHELL_BIN (build first)" >&2
  exit 1
fi

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# Per-client script: loads the demo relations, runs a small pipeline into
# client-private buffer names, prints results, and durably STOREs under a
# client-private disk name. Deterministic output per client by construction.
client_script() {
  local i="$1"
  cat <<EOF
LOAD supplies
LOAD required
DIVIDE supplies required ON part = part -> c${i}_complete
PRINT c${i}_complete
DEDUP supplies -> c${i}_d
PRINT c${i}_d
STORE c${i}_d AS c${i}_store
LOAD parts
SELECT parts WHERE weight >= 20 -> c${i}_heavy
PRINT c${i}_heavy
BEGIN
JOIN supplies parts ON part = part -> c${i}_tx
COMMIT
PRINT c${i}_tx
EXPLAIN JOIN supplies parts ON part = part -> c${i}_wide
EOF
}

# Boot the server on an ephemeral port and parse the bound port from its
# banner line ("serving on 127.0.0.1:<port> (chips=...)").
"$SHELL_BIN" --serve 0 >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$WORK/server.log" | head -1)"
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server_smoke: server died during startup:" >&2
    cat "$WORK/server.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "server_smoke: server never printed its port" >&2
  cat "$WORK/server.log" >&2
  exit 1
fi
echo "server_smoke: server up on port $PORT (pid $SERVER_PID)"

# Serial oracle: each client's script, one client at a time.
for i in $(seq 1 "$CLIENTS"); do
  client_script "$i" | "$SHELL_BIN" --connect "$PORT" \
      >"$WORK/serial_$i.out" 2>&1
done

# Concurrent run: all clients at once against the same server.
pids=()
for i in $(seq 1 "$CLIENTS"); do
  client_script "$i" | "$SHELL_BIN" --connect "$PORT" \
      >"$WORK/concurrent_$i.out" 2>&1 &
  pids+=($!)
done
for pid in "${pids[@]}"; do
  wait "$pid"
done

# Byte-identical transcripts, client by client. The one legitimate
# difference is the session id EXPLAIN reports — it names the connection,
# not the result — so it is normalized out before the diff.
normalize() {
  sed 's/session: id [0-9]*/session: id N/' "$1"
}
fail=0
for i in $(seq 1 "$CLIENTS"); do
  normalize "$WORK/serial_$i.out" >"$WORK/serial_$i.norm"
  normalize "$WORK/concurrent_$i.out" >"$WORK/concurrent_$i.norm"
  if ! diff -u "$WORK/serial_$i.norm" "$WORK/concurrent_$i.norm" \
      >"$WORK/diff_$i.txt" 2>&1; then
    echo "server_smoke: client $i transcript diverged under concurrency:" >&2
    cat "$WORK/diff_$i.txt" >&2
    fail=1
  fi
  if grep -q '^ERR ' "$WORK/serial_$i.out"; then
    echo "server_smoke: client $i script hit errors:" >&2
    grep '^ERR ' "$WORK/serial_$i.out" >&2
    fail=1
  fi
done

# Orderly shutdown through the protocol, then wait for the server to print
# its session/commit summary.
printf 'SHUTDOWN\n' | "$SHELL_BIN" --connect "$PORT" >/dev/null 2>&1 || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

if [ "$fail" -ne 0 ]; then
  echo "server_smoke: FAILED" >&2
  exit 1
fi
echo "server_smoke: OK — $CLIENTS concurrent clients byte-identical to the" \
     "serial oracle"

# ---- S26 drain leg: graceful stop under load ------------------------------
# Boot a fresh server, put clients on it, then DRAIN mid-flight. The server
# must finish in-flight commands, print its summary banner, and exit on its
# own; draining must never look like a crash to the operator.
"$SHELL_BIN" --serve 0 >"$WORK/drain_server.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$WORK/drain_server.log" | head -1)"
  [ -n "$PORT" ] && break
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "server_smoke: drain-leg server never printed its port" >&2
  cat "$WORK/drain_server.log" >&2
  exit 1
fi
drain_pids=()
for i in $(seq 1 4); do
  client_script "$i" | "$SHELL_BIN" --connect "$PORT" \
      >"$WORK/drain_client_$i.out" 2>&1 &
  drain_pids+=($!)
done
printf 'DRAIN\n' | "$SHELL_BIN" --connect "$PORT" >/dev/null 2>&1 || true
for pid in "${drain_pids[@]}"; do
  wait "$pid" 2>/dev/null || true  # a drained-out client is expected
done
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
if ! grep -q 'served .* session(s)' "$WORK/drain_server.log"; then
  echo "server_smoke: drained server never printed its summary:" >&2
  cat "$WORK/drain_server.log" >&2
  exit 1
fi
echo "server_smoke: OK — graceful DRAIN under load shut the server down" \
     "cleanly"

# ---- S26 chaos leg: one point of the network-injection fuzz ---------------
# The full sweep runs in the TSan and nightly CI lanes; the smoke gate runs
# one seed of every lane to catch wiring rot early.
if [ -x "$CHAOS_BIN" ]; then
  if ! SYSTOLIC_FUZZ_SEEDS=1 "$CHAOS_BIN" \
      --gtest_filter='Sweep/ServerChaosFuzz.*/0:ChaosDirFixture.*' \
      >"$WORK/chaos.log" 2>&1; then
    echo "server_smoke: chaos leg FAILED:" >&2
    tail -40 "$WORK/chaos.log" >&2
    exit 1
  fi
  echo "server_smoke: OK — chaos injection leg (1 seed per lane) passed"
else
  echo "server_smoke: chaos leg skipped (no binary at $CHAOS_BIN)"
fi
