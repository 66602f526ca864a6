#!/usr/bin/env bash
# serve-smoke: end-to-end crash-recovery smoke test of cliffedged.
#
# Starts the daemon, submits a sweep over HTTP, follows the SSE stream
# until several runs have committed, SIGKILLs the process mid-sweep —
# checked, not assumed: the campaign status read just before the kill
# must show runs still to go — restarts it on the same store, and
# verifies that the sweep resumes cleanly and completes with a full,
# violation-free report.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18436
BASE="http://$ADDR"
DEBUG=127.0.0.1:18437
DATA=$(mktemp -d)
LOG1=$(mktemp)
LOG2=$(mktemp)
BIN=$(mktemp -d)/cliffedged
# Ring runs take well under a millisecond: 1000 of them on two workers
# could finish before the kill, leaving nothing to resume. 10000 keep
# the sweep running for seconds past the point where the kill lands.
RUNS=10000
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$DATA" "$LOG1" "$LOG2" "$(dirname "$BIN")"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/cliffedged

wait_healthy() {
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "serve-smoke: server never became healthy" >&2
    return 1
}

"$BIN" -addr "$ADDR" -store "$DATA" -workers 2 -debug-addr "$DEBUG" >"$LOG1" 2>&1 &
PID=$!
wait_healthy

ID=$(curl -fsS -X POST "$BASE/api/v1/campaigns" -H 'X-Client-ID: smoke' -d '{
  "topologies": ["ring"], "regimes": ["quiescent"], "engines": ["sim"],
  "seed_start": 1, "seeds": '"$RUNS"', "repeats": 1}' |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "serve-smoke: submitted $ID ($RUNS runs)"

# Follow the SSE stream until five results have arrived, proving runs are
# committing, then kill the daemon without ceremony. (Closing the stream
# early kills curl with SIGPIPE — expected, hence the || true.)
SEEN=$(timeout 60 curl -fsS -N "$BASE/api/v1/campaigns/$ID/events" 2>/dev/null |
    grep --line-buffered '^data: ' | head -n 5 || true)
if [ "$(printf '%s\n' "$SEEN" | wc -l)" -lt 5 ]; then
    echo "serve-smoke: saw fewer than 5 SSE results before interrupting" >&2
    exit 1
fi
# Mid-sweep, the metrics endpoint must already show committed work on a
# fresh store (no torn-tail recoveries) — counted by the worker pool as
# well as by the commit path — and the pprof side listener must answer.
curl -fsS "$BASE/metrics" | python3 -c '
import sys
samples = {}
for line in sys.stdin:
    if line.startswith("#") or not line.strip():
        continue
    name, _, value = line.rpartition(" ")
    samples[name] = float(value)
assert samples.get("cliffedge_serve_jobs_committed_total", 0) > 0, \
    "no jobs committed: %r" % samples.get("cliffedge_serve_jobs_committed_total")
assert samples.get("cliffedge_campaign_jobs_completed_total", 0) > 0, \
    "served jobs not counted by the pool: %r" % samples.get("cliffedge_campaign_jobs_completed_total")
assert samples.get("cliffedge_sim_runs_total", 0) > 0, \
    "no sim runs counted: %r" % samples.get("cliffedge_sim_runs_total")
assert samples.get("cliffedge_store_appends_total", 0) > 0, \
    "no store appends counted: %r" % samples.get("cliffedge_store_appends_total")
assert samples.get("cliffedge_store_recoveries_total") == 0, \
    "fresh store reported recoveries: %r" % samples.get("cliffedge_store_recoveries_total")
print("serve-smoke: /metrics live mid-sweep: %d jobs committed, 0 recoveries"
      % samples["cliffedge_serve_jobs_committed_total"])
'
curl -fsS "http://$DEBUG/debug/pprof/" >/dev/null
# grep reads the whole body: -q would exit at the match and fail curl
# (exit 23, pipefail) once the exposition outgrows the pipe buffer.
curl -fsS "http://$DEBUG/metrics" | grep '^cliffedge_serve_jobs_committed_total ' >/dev/null
echo "serve-smoke: pprof and metrics answering on -debug-addr"

# The kill must land mid-sweep, or the restart below has nothing to resume.
curl -fsS "$BASE/api/v1/campaigns/$ID" | python3 -c '
import json, sys
st = json.load(sys.stdin)
if st["completed"] >= st["total"]:
    sys.exit("serve-smoke: sweep already finished (%d/%d runs) before the kill; raise RUNS"
             % (st["completed"], st["total"]))
print("serve-smoke: killing at %d/%d runs" % (st["completed"], st["total"]))
'
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
echo "serve-smoke: SIGKILLed mid-sweep"

"$BIN" -addr "$ADDR" -store "$DATA" -workers 2 >"$LOG2" 2>&1 &
PID=$!
wait_healthy
grep "resumed campaign" "$LOG2" | grep -q "campaign=$ID" || {
    echo "serve-smoke: restart did not resume $ID" >&2
    cat "$LOG2" >&2
    exit 1
}
echo "serve-smoke: restart resumed $ID"

# Follow the resumed stream to the terminal event; it must be "done".
TERMINAL=$(timeout 300 curl -fsS -N "$BASE/api/v1/campaigns/$ID/events" 2>/dev/null |
    grep --line-buffered -m1 '^event: \(done\|cancelled\)$' || true)
if [ "$TERMINAL" != "event: done" ]; then
    echo "serve-smoke: stream ended with '$TERMINAL', want 'event: done'" >&2
    exit 1
fi
echo "serve-smoke: sweep completed after resume"

curl -fsS "$BASE/api/v1/campaigns/$ID/report.json" | python3 -c '
import json, sys
totals = json.load(sys.stdin)["totals"]
assert totals["runs"] == '"$RUNS"', "runs %r != '"$RUNS"'" % totals["runs"]
assert totals["violations"] == 0, "violations %r" % totals["violations"]
assert totals["errors"] == 0, "errors %r" % totals["errors"]
print("serve-smoke: report complete:", totals)
'
curl -fsS "$BASE/api/v1/campaigns/$ID/report.csv" | head -n 1 | grep -q '^topology,regime,engine'
echo "serve-smoke: OK"
