#!/usr/bin/env bash
# Real-binary smoke test for rmacserved: start the service with a journal,
# submit a small sweep, kill -9 the server mid-sweep, restart it over the
# same journal, and assert that
#
#   1. the restarted server resumes and completes the job (unfinished
#      points are retried; finished ones are not re-run),
#   2. the served result is bit-identical to what the batch CLI (rmacsim)
#      computes for the same grid point: equal fingerprints (the digest of
#      every deterministic measurement, RunResult.Fingerprint) and equal
#      delivery ratios, and
#   3. the telemetry surface holds up: /metrics serves well-formed,
#      convention-named series, the counters replayed from the journal
#      are monotone across the kill -9 (post-resume totals >= any value
#      the first life served), and /debug/pprof answers.
#
# The in-process chaos tests (internal/server) cover the same machinery
# with scripted failures; this exercises the actual binaries, signals and
# HTTP surface end to end. Needs only curl + standard POSIX tools.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
JOURNAL="$BIN/sweeps.jsonl"
ADDR=127.0.0.1:18473
SRV=

cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

echo "== building"
go build -o "$BIN/rmacserved" ./cmd/rmacserved
go build -o "$BIN/rmacsim" ./cmd/rmacsim

start_server() {
    "$BIN/rmacserved" -addr "$ADDR" -journal "$JOURNAL" -workers 2 &
    SRV=$!
    for _ in $(seq 100); do
        if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then return; fi
        sleep 0.1
    done
    echo "FAIL: server did not come up" >&2
    exit 1
}

# 3 rmac points (seeds 0..2 -> placement seeds 1, 7920, 15839), small
# enough to finish quickly, big enough that kill -9 lands mid-sweep.
REQ='{"protocols":["rmac"],"rates":[10],"seeds":3,"nodes":20,"field_w":250,"field_h":150,"packets":40}'

# metric prints one sample's value from /metrics (exact series name,
# labels included).
metric() {
    curl -fsS "http://$ADDR/metrics" | awk -v s="$1" '$1 == s {print $2}'
}

echo "== first life: submit, then kill -9 mid-sweep"
start_server
JOB=$(curl -fsS -d "$REQ" "http://$ADDR/sweeps" | sed -n 's/.*"job": "\(j[0-9]*\)".*/\1/p')
[ -n "$JOB" ] || { echo "FAIL: no job id in submit response" >&2; exit 1; }
sleep 0.5
EV_BEFORE=$(metric rmac_kernel_events_total)
[ -n "$EV_BEFORE" ] || { echo "FAIL: rmac_kernel_events_total missing pre-kill" >&2; exit 1; }
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=

echo "== second life: resume from journal"
start_server
STATE=
for _ in $(seq 600); do
    STATE=$(curl -fsS "http://$ADDR/jobs/$JOB" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -1)
    [ "$STATE" = completed ] && break
    sleep 0.2
done
if [ "$STATE" != completed ]; then
    echo "FAIL: job $JOB state after resume: ${STATE:-unknown}" >&2
    curl -fsS "http://$ADDR/jobs/$JOB" >&2 || true
    exit 1
fi

# First results entry is grid point 0 (rmac, rate 10, placement seed 1).
JOBJSON=$(curl -fsS "http://$ADDR/jobs/$JOB")
SERVED=$(printf '%s\n' "$JOBJSON" | grep -m1 '"delivery"' | sed 's/.*: \([0-9.eE+-]*\),*/\1/')
SERVED=$(printf '%.4f' "$SERVED")
SERVED_FP=$(printf '%s\n' "$JOBJSON" | grep -m1 '"fingerprint"' | sed 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/')

echo "== batch CLI on the same grid point"
CLI=$("$BIN/rmacsim" -protocol rmac -scenario stationary -rate 10 -packets 40 \
    -nodes 20 -field-w 250 -field-h 150 -seed 1)
BATCH=$(printf '%s\n' "$CLI" | sed -n 's/.*packet delivery ratio *\([0-9.]*\).*/\1/p')
BATCH_FP=$(printf '%s\n' "$CLI" | sed -n 's/^fingerprint \([0-9a-f]*\)$/\1/p')

if [ "$SERVED" != "$BATCH" ]; then
    echo "FAIL: served delivery $SERVED != batch delivery $BATCH" >&2
    exit 1
fi
if [ -z "$SERVED_FP" ] || [ "$SERVED_FP" != "$BATCH_FP" ]; then
    echo "FAIL: served fingerprint '$SERVED_FP' != batch fingerprint '$BATCH_FP'" >&2
    exit 1
fi
echo "OK: resumed job completed; served delivery $SERVED == batch $BATCH, fingerprint $SERVED_FP"

echo "== telemetry: core series, monotone resume, name lint, pprof"
EV_AFTER=$(metric rmac_kernel_events_total)
DONE=$(metric 'rmac_service_points_total{outcome="done"}')
WORKERS=$(metric rmac_service_workers)
[ -n "$EV_AFTER" ] && [ -n "$DONE" ] && [ -n "$WORKERS" ] || {
    echo "FAIL: core series missing from /metrics (events='$EV_AFTER' done='$DONE' workers='$WORKERS')" >&2
    exit 1
}
# Counters replayed from the journal must be >= anything the first life
# served, and a completed 3-point sweep is strictly positive.
awk -v a="$EV_AFTER" -v b="$EV_BEFORE" -v d="$DONE" \
    'BEGIN { exit !(a+0 >= b+0 && a+0 > 0 && d+0 >= 3) }' || {
    echo "FAIL: counters not monotone across kill -9 (events $EV_BEFORE -> $EV_AFTER, done $DONE)" >&2
    exit 1
}
# promtool-free lint: every family is rmac_<subsystem>_<name>_<unit>.
curl -fsS "http://$ADDR/metrics" | awk '
    /^# TYPE / {
        name = $3; typ = $4
        if (name !~ /^rmac_(kernel|proto|service)_[a-z0-9_]+$/) { print "bad family name: " name; bad = 1 }
        if (typ == "counter" && name !~ /_total$/) { print "counter without _total: " name; bad = 1 }
        if (typ == "histogram" && name !~ /_(seconds|bytes)$/) { print "histogram without base unit: " name; bad = 1 }
    }
    END { exit bad }
' || { echo "FAIL: metrics name lint" >&2; exit 1; }
# The pprof surface answers with a real (non-empty) CPU profile.
PPROF_BYTES=$(curl -fsS "http://$ADDR/debug/pprof/profile?seconds=1" | wc -c)
[ "$PPROF_BYTES" -gt 0 ] || { echo "FAIL: empty pprof profile" >&2; exit 1; }
echo "OK: telemetry — events $EV_BEFORE -> $EV_AFTER, $DONE points done, pprof $PPROF_BYTES bytes"
