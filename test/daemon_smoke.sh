#!/usr/bin/env bash
# Kill-9 durability smoke test for qxmapd.
#
# Drives a real daemon process over its stdin/stdout line protocol:
#   1. serve a batch of requests into a persistent cache,
#   2. kill -9 the daemon and vandalize the cache directory the way a
#      mid-write crash would (truncate one entry, drop a stray .tmp),
#   3. restart against the same directory and assert that the intact
#      entry is served as a warm cache hit, the corrupt one is
#      quarantined and transparently re-solved, and the quarantine
#      shows up in the metrics snapshot,
#   4. run a deadline-bounded request with every exact solve faulted to
#      Unknown and assert a certified (non-crashing) degraded answer
#      from SABRE, the portfolio's fallback, on the request's one run;
# and that no response line in any phase carries an "attempts" key.
#
# Usage: test/daemon_smoke.sh [path-to-qxmapd] [metrics-out]
set -u

QXMAPD=${1:-_build/default/bin/qxmapd.exe}
METRICS_OUT=${2:-daemon_metrics.txt}
WORK=$(mktemp -d)
CACHE="$WORK/cache"
FIFO="$WORK/in"
OUT1="$WORK/out1"
OUT2="$WORK/out2"
OUT3="$WORK/out3"
DAEMON_PID=

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "daemon_smoke: FAIL: $*" >&2
  exit 1
}

[ -x "$QXMAPD" ] || fail "qxmapd binary not found at $QXMAPD (build first)"

# Two distinct circuits so the cache holds two independent entries.
CIRC_A='OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\ncx q[1],q[0];\ncx q[2],q[0];\ncx q[3],q[0];\ncx q[1],q[2];\nt q[3];\ncx q[1],q[3];\n'
CIRC_B='OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\ncx q[3],q[0];\n'

req() { # id circuit [extra-fields]
  printf '{"op":"map","id":"%s","qasm":"%s","device":"qx4","budget":30%s}\n' \
    "$1" "$2" "${3:-}"
}

# Wait until a response line with the given id appears in a file.
wait_for() { # file id
  for _ in $(seq 1 600); do
    grep -q "\"id\": \"$2\"" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  fail "timed out waiting for response $2 in $1 (daemon output: $(cat "$1" 2>/dev/null))"
}

field() { # file id field  -> prints the raw value
  grep "\"id\": \"$2\"" "$1" | head -1 |
    sed -n "s/.*\"$3\": \([^,}]*\).*/\1/p"
}

start_daemon() { # outfile extra-args...
  local out=$1
  shift
  mkfifo "$FIFO"
  "$QXMAPD" --cache-dir "$CACHE" -j 2 "$@" < "$FIFO" > "$out" 2> "$out.err" &
  DAEMON_PID=$!
  # keep the fifo writable for the whole session
  exec 3> "$FIFO"
}

stop_fifo() {
  exec 3>&-
  rm -f "$FIFO"
}

echo "daemon_smoke: phase 1 — populate the cache"
start_daemon "$OUT1"
req a1 "$CIRC_A" >&3
req b1 "$CIRC_B" >&3
wait_for "$OUT1" a1
wait_for "$OUT1" b1
[ "$(field "$OUT1" a1 status)" = '"ok"' ] || fail "a1 did not succeed"
[ "$(field "$OUT1" b1 status)" = '"ok"' ] || fail "b1 did not succeed"
[ "$(field "$OUT1" a1 cached)" = "false" ] || fail "a1 should be a cold solve"

echo "daemon_smoke: phase 2 — kill -9 and corrupt the cache"
kill -9 "$DAEMON_PID" || fail "could not kill daemon"
wait "$DAEMON_PID" 2>/dev/null
DAEMON_PID=
stop_fifo

ENTRIES=("$CACHE"/*.entry)
[ ${#ENTRIES[@]} -eq 2 ] || fail "expected 2 cache entries, found ${#ENTRIES[@]}"
# a mid-write crash: one entry truncated, one half-finished temp file
head -c 30 "${ENTRIES[0]}" > "${ENTRIES[0]}.cut" && mv "${ENTRIES[0]}.cut" "${ENTRIES[0]}"
echo "partial write" > "$CACHE/.tmp.crashed.9999"

echo "daemon_smoke: phase 3 — restart, recover, warm hits"
start_daemon "$OUT2" --metrics-out "$METRICS_OUT"
req a2 "$CIRC_A" >&3
req b2 "$CIRC_B" >&3
wait_for "$OUT2" a2
wait_for "$OUT2" b2
[ "$(field "$OUT2" a2 status)" = '"ok"' ] || fail "a2 did not succeed"
[ "$(field "$OUT2" b2 status)" = '"ok"' ] || fail "b2 did not succeed"
# exactly one of the two survived intact, so exactly one warm hit;
# the truncated one must have been quarantined and re-solved fresh
HITS=0
[ "$(field "$OUT2" a2 cached)" = "true" ] && HITS=$((HITS + 1))
[ "$(field "$OUT2" b2 cached)" = "true" ] && HITS=$((HITS + 1))
[ "$HITS" -eq 1 ] || fail "expected exactly 1 warm hit after corruption, got $HITS"
[ -d "$CACHE/quarantine" ] || fail "quarantine directory missing"
QN=$(find "$CACHE/quarantine" -mindepth 1 | wc -l)
[ "$QN" -ge 2 ] || fail "expected >= 2 quarantined files (entry + tmp), got $QN"
# results must agree across the crash
[ "$(field "$OUT1" a1 f_cost)" = "$(field "$OUT2" a2 f_cost)" ] ||
  fail "f_cost changed across restart"
printf '{"op":"shutdown","id":"bye"}\n' >&3
wait_for "$OUT2" bye
wait "$DAEMON_PID" 2>/dev/null
DAEMON_PID=
stop_fifo

[ -s "$METRICS_OUT" ] || fail "metrics snapshot not written"
grep -q "svc.cache_quarantined" "$METRICS_OUT" ||
  fail "metrics snapshot missing the quarantine counter"
grep -q "svc.cache_hits" "$METRICS_OUT" ||
  fail "metrics snapshot missing cache hit counters"

echo "daemon_smoke: phase 4 — deadline-bounded request under injected faults"
start_daemon "$OUT3" --inject unknown
req f1 "$CIRC_A" ',"cache":false' >&3
wait_for "$OUT3" f1
[ "$(field "$OUT3" f1 status)" = '"ok"' ] || fail "faulted request did not degrade gracefully"
[ "$(field "$OUT3" f1 optimal)" = "false" ] || fail "faulted request cannot be optimal"
# the portfolio absorbs the fault storm on its one run: the seeded exact
# lane answers with its DP routing
[ "$(field "$OUT3" f1 provenance)" = '"dp-incumbent"' ] ||
  fail "faulted request should be answered by the DP routing, got $(field "$OUT3" f1 provenance)"
stop_fifo
wait "$DAEMON_PID" 2>/dev/null
DAEMON_PID=

# each request runs once, so no response carries an attempt count
if grep -q '"attempts"' "$OUT1" "$OUT2" "$OUT3"; then
  fail "a response line carries an \"attempts\" key"
fi

echo "daemon_smoke: PASS"
