#!/usr/bin/env bash
# fleet-smoke: end-to-end fault-tolerance smoke test of the fleet
# coordinator.
#
# Builds a single-box reference report, starts three cliffedged workers
# and one coordinator, submits a fleet, follows the merged SSE stream
# until several runs have committed, SIGKILLs one worker mid-shard, and
# verifies that the sweep still completes — the orphaned shards re-leased
# to the survivors — with a merged report byte-identical to the single-box
# reference.
set -euo pipefail
cd "$(dirname "$0")/.."

CADDR=127.0.0.1:18450
CBASE="http://$CADDR"
WADDRS=(127.0.0.1:18451 127.0.0.1:18452 127.0.0.1:18453)
WORK=$(mktemp -d)
BIN="$WORK/cliffedged"
CAMPAIGN="$WORK/cliffedge-campaign"
REF="$WORK/reference.json"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/cliffedged
go build -o "$CAMPAIGN" ./cmd/cliffedge-campaign

SPEC='{"topologies": ["ring"], "regimes": ["quiescent"], "engines": ["sim"],
       "seed_start": 1, "seeds": 30000, "repeats": 1}'

# Single-box reference: same spec, one process, no sharding.
"$CAMPAIGN" -topos ring -regimes quiescent -engines sim \
    -seed-start 1 -seeds 30000 -repeats 1 -quiet -json "$REF"
echo "fleet-smoke: single-box reference built ($(wc -c <"$REF") bytes)"

# Python prelude of the /metrics assertions: the Prometheus text on stdin,
# parsed into `samples`.
PARSE_METRICS='
import sys
samples = {}
for line in sys.stdin:
    if line.startswith("#") or not line.strip():
        continue
    name, _, value = line.rpartition(" ")
    samples[name] = float(value)
'

wait_healthy() {
    for _ in $(seq 1 100); do
        if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "fleet-smoke: $1 never became healthy" >&2
    return 1
}

WURLS=""
for i in 0 1 2; do
    "$BIN" -addr "${WADDRS[$i]}" -store "$WORK/worker$i" -workers 2 -max-client 64 \
        >"$WORK/worker$i.log" 2>&1 &
    PIDS+=($!)
    WURLS="$WURLS,http://${WADDRS[$i]}"
done
WURLS=${WURLS#,}
for i in 0 1 2; do wait_healthy "http://${WADDRS[$i]}"; done
echo "fleet-smoke: 3 workers up"

"$BIN" -coordinator -addr "$CADDR" -store "$WORK/coord" \
    -workers "$WURLS" -shards 12 -worker-timeout 5s \
    >"$WORK/coord.log" 2>&1 &
PIDS+=($!)
wait_healthy "$CBASE"

ID=$(curl -fsS -X POST "$CBASE/api/v1/fleets" -H 'X-Client-ID: smoke' -d "$SPEC" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "fleet-smoke: submitted $ID (30000 runs, 12 shards)"

# Follow the merged SSE stream until five results have committed, proving
# the incremental merge is flowing, then SIGKILL worker 1 mid-shard.
# (Closing the stream early kills curl with SIGPIPE — expected.)
SEEN=$(timeout 120 curl -fsS -N "$CBASE/api/v1/fleets/$ID/events" 2>/dev/null |
    grep --line-buffered '^data: ' | head -n 5 || true)
if [ "$(printf '%s\n' "$SEEN" | wc -l)" -lt 5 ]; then
    echo "fleet-smoke: saw fewer than 5 merged SSE results" >&2
    cat "$WORK/coord.log" >&2
    exit 1
fi

# Nothing has failed yet, so every record the coordinator fetched was new:
# the merge feed reads each shard's log from its cursor. A non-zero dedup
# count here means syncs are re-fetching what they already merged.
curl -fsS "$CBASE/metrics" | python3 -c "$PARSE_METRICS"'
assert samples.get("cliffedge_fleet_records_merged_total", 0) >= 5, \
    "records merged before the kill: %r" % samples.get("cliffedge_fleet_records_merged_total")
assert samples.get("cliffedge_fleet_records_deduped_total") == 0, \
    "fault-free phase deduped %r records: the merge feed is re-fetching" \
    % samples.get("cliffedge_fleet_records_deduped_total")
print("fleet-smoke: fault-free phase: %d records merged, 0 dedup, %d bytes fetched"
      % (samples["cliffedge_fleet_records_merged_total"],
         samples.get("cliffedge_fleet_sync_bytes_total", 0)))
'
kill -9 "${PIDS[1]}"
wait "${PIDS[1]}" 2>/dev/null || true
echo "fleet-smoke: SIGKILLed worker 1 mid-shard"

# Follow the stream to the terminal event; the fleet must still complete,
# its orphaned shards re-leased to the surviving workers.
TERMINAL=$(timeout 300 curl -fsS -N "$CBASE/api/v1/fleets/$ID/events" 2>/dev/null |
    grep --line-buffered -m1 '^event: \(done\|cancelled\)$' || true)
if [ "$TERMINAL" != "event: done" ]; then
    echo "fleet-smoke: stream ended with '$TERMINAL', want 'event: done'" >&2
    cat "$WORK/coord.log" >&2
    exit 1
fi
grep -q 're-leasing' "$WORK/coord.log" || {
    echo "fleet-smoke: coordinator never re-leased a shard after the kill" >&2
    cat "$WORK/coord.log" >&2
    exit 1
}
echo "fleet-smoke: fleet completed via reassignment"

# The merged report must be byte-identical to the single-box reference.
curl -fsS "$CBASE/api/v1/fleets/$ID/report.json" >"$WORK/fleet.json"
cmp "$REF" "$WORK/fleet.json" || {
    echo "fleet-smoke: merged report differs from single-box reference" >&2
    exit 1
}
echo "fleet-smoke: merged report byte-identical to single-box reference"

# The coordinator's metrics must account for the whole fleet: every run
# merged exactly once, the kill visible as re-lease traffic, and the
# re-run shards' overlap absorbed as dedups rather than double commits.
curl -fsS "$CBASE/metrics" | python3 -c "$PARSE_METRICS"'
assert samples.get("cliffedge_fleet_records_merged_total", 0) == 30000, \
    "records merged %r != 30000" % samples.get("cliffedge_fleet_records_merged_total")
assert samples.get("cliffedge_fleet_shard_leases_total", 0) >= 12, \
    "leases %r < 12 shards" % samples.get("cliffedge_fleet_shard_leases_total")
assert samples.get("cliffedge_fleet_shard_reassignments_total", 0) > 0, \
    "kill produced no re-lease in metrics"
assert samples.get("cliffedge_store_recoveries_total") == 0, \
    "coordinator store reported recoveries: %r" % samples.get("cliffedge_store_recoveries_total")
print("fleet-smoke: coordinator /metrics: %d records merged, %d dedup, %d re-leases"
      % (samples["cliffedge_fleet_records_merged_total"],
         samples.get("cliffedge_fleet_records_deduped_total", 0),
         samples["cliffedge_fleet_shard_reassignments_total"]))
'

curl -fsS "$CBASE/api/v1/fleets/$ID" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["status"] == "done", doc["status"]
assert doc["completed"] == doc["total"] == 30000, (doc["completed"], doc["total"])
attempts = sum(s.get("attempt", 0) for s in doc["shards"])
assert attempts > 0, "no shard was ever re-leased"
print("fleet-smoke: status done, %d/%d runs, %d re-lease attempts"
      % (doc["completed"], doc["total"], attempts))
'

# The rest of the coordinator's read surface is the worker's own handler
# set under another noun: the list, the cell table, the CSV, the merged
# result log (offset 0 is the whole file, byte for byte), and a DELETE
# that comes too late.
curl -fsS "$CBASE/api/v1/fleets" | ID="$ID" python3 -c '
import json, os, sys
fleets = json.load(sys.stdin)["fleets"]
assert [f["id"] for f in fleets] == [os.environ["ID"]], fleets
assert fleets[0]["status"] == "done" and "shards" not in fleets[0], fleets[0]
'
curl -fsS "$CBASE/api/v1/fleets/$ID/cells" | ID="$ID" python3 -c '
import json, os, sys
doc = json.load(sys.stdin)
assert doc["id"] == os.environ["ID"] and len(doc["cells"]) == 1, doc
assert doc["cells"][0]["runs"] == 30000, doc["cells"][0]
'
curl -fsS "$CBASE/api/v1/fleets/$ID/report.csv" >"$WORK/fleet.csv"
[ "$(head -c 22 "$WORK/fleet.csv")" = "topology,regime,engine" ] && [ "$(wc -l <"$WORK/fleet.csv")" -eq 2 ] || {
    echo "fleet-smoke: report.csv is not a header plus one cell:" >&2
    head -n 3 "$WORK/fleet.csv" >&2
    exit 1
}
curl -fsS "$CBASE/api/v1/fleets/$ID/results?offset=0" >"$WORK/fleet-results.log"
cmp "$WORK/coord/$ID/results.log" "$WORK/fleet-results.log" || {
    echo "fleet-smoke: /results?offset=0 is not the merged results.log" >&2
    exit 1
}
CODE=$(curl -sS -o /dev/null -w '%{http_code}' -X DELETE "$CBASE/api/v1/fleets/$ID")
if [ "$CODE" != 409 ]; then
    echo "fleet-smoke: DELETE of a finished fleet answered $CODE, want 409" >&2
    exit 1
fi
echo "fleet-smoke: list, cells, report.csv, results ($(wc -c <"$WORK/fleet-results.log") bytes) and late DELETE check out"
echo "fleet-smoke: OK"
