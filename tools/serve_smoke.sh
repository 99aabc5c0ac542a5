#!/usr/bin/env bash
# Smoke test for the fairhms_serve daemon: boot on a unix-domain socket,
# serve a mixed batch through --client, hammer it from four concurrent
# clients, snapshot-reload on SIGHUP, then drain gracefully on SIGTERM.
# Usage: serve_smoke.sh <fairhms_serve binary> <scratch dir>
set -u

SERVE="$1"
OUT="$2"
SOCK="$OUT/serve_smoke.sock"
RELOAD="$OUT/serve_smoke_reload"
LOG="$OUT/serve_smoke.stdout"
ERR="$OUT/serve_smoke.stderr"

fail() {
  echo "serve_smoke: FAIL: $1" >&2
  [ -f "$LOG" ] && sed 's/^/  stdout: /' "$LOG" >&2
  [ -f "$ERR" ] && sed 's/^/  stderr: /' "$ERR" >&2
  [ -n "${PID:-}" ] && kill -KILL "$PID" 2>/dev/null
  exit 1
}

rm -f "$SOCK" "$LOG" "$ERR"
rm -rf "$RELOAD"
mkdir -p "$RELOAD"

"$SERVE" --synthetic=independent --n=300 --dim=3 --groups=2 \
  --unix="$SOCK" --workers=4 --reload_dir="$RELOAD" >"$LOG" 2>"$ERR" &
PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && grep -q "ready" "$LOG" 2>/dev/null && break
  kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
  sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon did not come up"

# One mixed batch: queries, an update, a stats probe and one bad line.
REQ="$OUT/serve_smoke_req.jsonl"
cat >"$REQ" <<'EOF'
{"algorithm": "bigreedy", "k": 6, "alpha": 0.2, "params": {"net_size": 120}, "id": "q1"}
{"algorithm": "bigreedy", "k": 6, "alpha": 0.2, "params": {"net_size": 120}, "id": "q2"}
{"op": "insert", "point": [0.9, 0.9, 0.9], "group": 1, "id": "ins"}
{"op": "stats", "id": "st"}
{"algorithm": "no_such_algo", "k": 4, "id": "bad"}
EOF
"$SERVE" --client --unix="$SOCK" <"$REQ" >"$OUT/serve_smoke_resp.jsonl"
rc=$?
[ "$rc" -eq 3 ] || fail "client expected exit 3 (one failed line), got $rc"
resp="$OUT/serve_smoke_resp.jsonl"
[ "$(wc -l <"$resp")" -eq 5 ] || fail "expected 5 responses, got $(wc -l <"$resp")"
grep -q '"protocol_version": 1' "$resp" || fail "versioned envelope missing"
grep -q '"seq": ' "$resp" || fail "seq missing from daemon responses"
grep -q '"id": "st", "ok": true' "$resp" || fail "stats op failed"
grep -q '"error": {"code": "InvalidArgument"' "$resp" || \
  fail "structured error code missing"

# The two identical queries must return bit-identical rows.
q1=$(grep '"id": "q1"' "$resp" | grep -o '"rows": \[[^]]*\]')
q2=$(grep '"id": "q2"' "$resp" | grep -o '"rows": \[[^]]*\]')
[ -n "$q1" ] && [ "$q1" = "$q2" ] || fail "repeat query diverged: $q1 vs $q2"

# Four concurrent clients, mixed read load; every line must be answered.
CRQ="$OUT/serve_smoke_conc.jsonl"
{
  for i in $(seq 1 10); do
    echo "{\"algorithm\": \"intcov\", \"k\": 4, \"id\": $i}"
  done
  echo '{"op": "list", "id": "ls"}'
} >"$CRQ"
for c in 1 2 3 4; do
  "$SERVE" --client --unix="$SOCK" <"$CRQ" >"$OUT/serve_smoke_c$c.jsonl" &
done
wait %2 %3 %4 %5 2>/dev/null
for c in 1 2 3 4; do
  n=$(wc -l <"$OUT/serve_smoke_c$c.jsonl")
  [ "$n" -eq 11 ] || fail "client $c got $n of 11 responses"
  grep -q '"ok": false' "$OUT/serve_smoke_c$c.jsonl" && \
    fail "client $c saw a failed line"
done

# SIGHUP: snapshot-reload the catalog, then the daemon must keep serving.
kill -HUP "$PID"
for _ in $(seq 1 100); do
  grep -q "snapshot-reloaded" "$ERR" 2>/dev/null && break
  sleep 0.1
done
grep -q "snapshot-reloaded" "$ERR" || fail "SIGHUP reload did not complete"
[ -f "$RELOAD/default.snap" ] || fail "reload dir has no default.snap"
echo '{"algorithm": "intcov", "k": 4, "id": "after"}' | \
  "$SERVE" --client --unix="$SOCK" >"$OUT/serve_smoke_after.jsonl" || \
  fail "query after reload failed"
grep -q '"id": "after", "ok": true' "$OUT/serve_smoke_after.jsonl" || \
  fail "post-reload query not ok"

# SIGTERM: graceful drain, exit 0, final report on stderr.
kill -TERM "$PID"
wait "$PID"
rc=$?
[ "$rc" -eq 0 ] || fail "daemon exited $rc after SIGTERM"
grep -q "served" "$ERR" || fail "no final report on stderr"
# The drain report ends with the rendered stats response; it must parse.
grep '"op": "stats"' "$ERR" | tail -n 1 | \
  python3 -c 'import json,sys; json.loads(sys.stdin.read())' || \
  fail "drain report's stats line is not JSON"
[ -S "$SOCK" ] && fail "unix socket not removed on drain"

echo "serve_smoke: PASS"
exit 0
