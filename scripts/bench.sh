#!/usr/bin/env bash
# bench.sh — run the kernel/PHY hot-path benchmark suite and record the
# results in BENCH_kernel.json, the fault-injection overhead suite in
# BENCH_fault.json, the per-protocol whole-run suite in BENCH_run.json,
# and the sharded-engine scaling suite in BENCH_shard.json, so every PR
# leaves a perf trajectory.
#
# Usage:
#   scripts/bench.sh            # run suites, rewrite BENCH_*.json
#   scripts/bench.sh -quick     # single iteration smoke (CI)
#   scripts/bench.sh -check     # short run, gate against committed JSONs
#
# Each JSON maps a benchmark to {ns_op, b_op, allocs_op} (plus events_s,
# ns_event and ns_node_simsec where the benchmark reports them) and the
# source commit that measured it ("-dirty" when the tree had uncommitted
# changes), so a file merged from several recordings still dates each
# row. Its "_provenance" entry records where the numbers came from: CPU
# model, core count, GOMAXPROCS, Go version, commit and date. Commit the
# refreshed files together with any change that moves these numbers, and
# quote the before/after in the PR description. ns_node_simsec (wall ns
# per simulated node-second) compares any two builds; events_s and
# ns_event only builds that schedule a simulation with the same events.
#
# -check compares a short (1s benchtime) run against the committed numbers
# and fails on any allocs/op increase or on an ns/op regression beyond the
# noise tolerance: 75% for the kernel microbenchmarks, 50% for the
# whole-run suite. The committed numbers are best-of-N quiet-window
# samples, and same-binary noise on shared runners reaches +50% on the
# sub-2µs microbenchmarks, so the ns/op edge of this gate only catches
# structural (multi-x) slowdowns — the sharp edge is allocs/op: exact for
# the kernel suite (committed at zero), 5% for the whole-run suite whose
# per-run totals wobble ±1% with data-dependent retries. It never
# rewrites the JSONs.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="2s"
QUICK=0
CHECK=0
case "${1:-}" in
-quick)
    # Smoke mode: single iteration, and keep the committed numbers — a 1x
    # sample is a liveness check, not a measurement.
    BENCHTIME="1x"
    QUICK=1
    ;;
-check)
    BENCHTIME="1s"
    CHECK=1
    ;;
esac

COMMIT=$(git describe --always --dirty 2>/dev/null || echo unknown)

# provenance — the "_provenance" JSON object stamped into every file.
provenance() {
    local cpu
    cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
    printf '{"cpu": "%s", "nproc": %s, "gomaxprocs": %s, "go": "%s", "commit": "%s", "date": "%s"}' \
        "${cpu:-unknown}" "$(nproc)" "${GOMAXPROCS:-$(nproc)}" "$(go env GOVERSION)" \
        "$COMMIT" "$(date -u +%Y-%m-%d)"
}

# bench_suite PATTERN OUT PKGS... — run one benchmark suite and render the
# results as JSON into OUT (/dev/null in smoke mode, a temp file in check
# mode).
bench_suite() {
    local pattern=$1 out=$2
    shift 2
    [[ "$QUICK" == 1 ]] && out=/dev/null
    [[ "$CHECK" == 1 ]] && out="${TMPDIR:-/tmp}/bench_check_$(basename "$out")"
    local raw
    raw=$(go test -run '^$' -bench "$pattern" -benchtime "$BENCHTIME" -benchmem "$@")
    echo "$raw"

    echo "$raw" | awk -v prov="$(provenance)" -v commit="$COMMIT" '
    BEGIN { print "{"; printf "  \"_provenance\": %s", prov; n = 1 }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
        ns = ""; bop = ""; allocs = ""; evs = ""; nsev = ""; nsns = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")          ns     = $(i - 1)
            if ($(i) == "B/op")           bop    = $(i - 1)
            if ($(i) == "allocs/op")      allocs = $(i - 1)
            if ($(i) == "events/s")       evs    = $(i - 1)
            if ($(i) == "ns/event")       nsev   = $(i - 1)
            if ($(i) == "ns/node-simsec") nsns   = $(i - 1)
        }
        if (ns == "") next
        if (n++) printf ",\n"
        printf "  \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s", \
            name, ns, (bop == "" ? "null" : bop), (allocs == "" ? "null" : allocs)
        if (evs != "") printf ", \"events_s\": %s", evs
        if (nsev != "") printf ", \"ns_event\": %s", nsev
        if (nsns != "") printf ", \"ns_node_simsec\": %s", nsns
        printf ", \"commit\": \"%s\"}", commit
    }
    END { print "\n}" }
    ' > "$out"

    if [[ "$CHECK" == 0 && "$out" != /dev/null ]]; then
        echo
        echo "wrote $out:"
        cat "$out"
    fi
}

# bench_rows FILE — flatten a BENCH_*.json into "name ns_op allocs_op"
# rows for the comparison below.
bench_rows() {
    sed -n 's/^  "\([^"]*\)": {"ns_op": \([0-9.e+]*\), "b_op": [^,]*, "allocs_op": \([0-9.e+null]*\).*/\1 \2 \3/p' "$1"
}

# check_suite REF TOL ATOL — compare the current run (the temp file
# bench_suite left for REF) against the committed REF. Fails the script on
# an allocs/op increase beyond ATOL (0 = exact) or an ns/op regression
# beyond TOL.
CHECK_FAILED=0
check_suite() {
    local ref=$1 tol=$2 atol=${3:-0}
    local cur="${TMPDIR:-/tmp}/bench_check_${ref}"
    local refrows currows
    refrows=$(mktemp) currows=$(mktemp)
    bench_rows "$ref" > "$refrows"
    bench_rows "$cur" > "$currows"
    if ! awk -v tol="$tol" -v atol="$atol" -v ref="$ref" '
    NR == FNR { ns[$1] = $2; al[$1] = $3; next }
    $1 in ns {
        bad_ns = ($2 > ns[$1] * (1 + tol))
        bad_al = (al[$1] != "null" && $3 != "null" && $3 + 0 > al[$1] * (1 + atol))
        if (bad_ns)
            printf "REGRESSION %s: %.0f ns/op vs committed %.0f (+%.0f%%, tolerance %.0f%%)\n",
                $1, $2, ns[$1], 100 * ($2 / ns[$1] - 1), 100 * tol > "/dev/stderr"
        if (bad_al)
            printf "REGRESSION %s: %d allocs/op vs committed %d\n",
                $1, $3, al[$1] > "/dev/stderr"
        if (bad_ns || bad_al) bad = 1
        else ok++
        seen++
    }
    END {
        printf "%s: %d/%d benchmarks within tolerance\n", ref, ok, seen
        if (seen == 0) { print ref ": no overlapping benchmarks — stale reference?" > "/dev/stderr"; bad = 1 }
        exit bad
    }
    ' "$refrows" "$currows"; then
        CHECK_FAILED=1
    fi
    rm -f "$refrows" "$currows"
}

# The kernel suite: the engine's schedule, cancel and timer rows, and the
# PHY's broadcast fan-out (MediumFanout30/200 stationary, and on waypoint
# trajectories MediumFanoutMobile200 and paper-grid's MediumFanoutMobile75,
# all matched by the BenchmarkMediumFanout prefix) and busy-tone rows.
bench_suite 'BenchmarkEngineSchedule|BenchmarkEngineScheduleCancel|BenchmarkEngineTimerChurn|BenchmarkMediumFanout|BenchmarkToneStorm' \
    BENCH_kernel.json ./internal/sim ./internal/phy
[[ "$CHECK" == 1 ]] && check_suite BENCH_kernel.json 0.75

if [[ "$CHECK" == 0 ]]; then
    # Impairment overhead: the same 200-radio fanout with the fault layer
    # attached (bursty channel) vs attached-but-disabled. The disabled case
    # is the regression gate — a zero fault.Config must stay free.
    bench_suite 'BenchmarkFaultFanout' BENCH_fault.json ./internal/fault
fi

# Whole-run throughput per MAC protocol: the end-to-end engineering metric
# of the pooled frame lifecycle. allocs_op is the bill for a complete run
# (network construction included); events_s is the headline number. The
# pattern is anchored so the sharded suite below stays out of this file.
bench_suite '^BenchmarkWholeRun$' BENCH_run.json .
[[ "$CHECK" == 1 ]] && check_suite BENCH_run.json 0.50 0.05

# Sharded-engine scaling: the 1k/10k-node metro workload across shard
# counts (DESIGN.md §14). Each iteration is a whole multi-second run, so a
# single iteration is already an average over millions of events —
# benchtime stays 1x. The speedup ns_op(shards1)/ns_op(shardsN) is bounded
# by the recording host's core count (the -N suffix in the raw output);
# record the JSON from a machine with ≥ 8 cores to see the scaling, and
# quote that core count next to any speedup claim. The Mobile variant
# re-runs the 1k row with every node on a Speed1 waypoint trajectory, so
# BENCH_shard.json also records the mobility-epoch overhead at equal
# shard counts. The Coupled variant runs the 2k-node Poisson cut, where
# no void separates the strips and frontier synchronization dominates.
# The Scale ladder runs one engine on the metro workload at constant
# density from 1k to 16k nodes; its ns_event column is how one engine's
# cost per event grows with N.
# Quick mode runs only the 1k and 2k rows as a liveness check;
# check mode skips the suite — wall-clock
# scaling ratios on shared runners are noise, and the allocation gates
# live in the test suite (TestShardedSteadyStateAllocs).
if [[ "$CHECK" == 0 ]]; then
    SHARD_PATTERN='^BenchmarkWholeRun(Sharded(Mobile|Coupled)?|Scale)$'
    [[ "$QUICK" == 1 ]] && SHARD_PATTERN='^BenchmarkWholeRun(Sharded(Mobile|Coupled)?|Scale)$/^n[12]000$'
    BENCHTIME=1x # whole runs: one iteration is the measurement
    bench_suite "$SHARD_PATTERN" BENCH_shard.json .
fi

if [[ "$CHECK" == 1 ]]; then
    if [[ "$CHECK_FAILED" == 1 ]]; then
        echo "bench check FAILED" 1>&2
        exit 1
    fi
    echo "bench check passed"
fi
