#!/usr/bin/env bash
# Fingerprint diff for behaviour-preserving refactors: build cmd/rmacsim
# from BASE_REF (default HEAD) and from the work tree, run one fixed
# corpus of configs on both builds, and compare the `fingerprint` line
# (RunResult.Fingerprint, a digest of every deterministic measurement)
# config by config.
#
#   scripts/fingerprints.sh [BASE_REF]
#
# Corpus: {rmac, bmmm, bmw, lbp, mx, dot11} x {stationary, speed2} x
# {no impairment, -burst 0.2 -avail 0.9} x -shards {0, 2} x -seed {1, 2},
# each with -nodes 40 -field-w 400 -field-h 150 -packets 30 -rate 20;
# plus one grid-sized, multi-source run per MAC x scenario x -shards
# {0, 2} (-nodes 120 -field-w 600 -field-h 300 -sources 2 -packets 20
# -rate 40 -seed 1), which takes the >=96-radio spatial-grid path and
# the multi-source traffic of the large benchmark workloads: 120 runs
# per build. rmacsim runs with its default -strict, so a failed,
# aborted, deadlocked or audit-violating run fails the script too.
#
# Prints the base and work-tree fingerprint lines for every config and
# exits non-zero on any mismatch or any non-zero rmacsim exit.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${1:-HEAD}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== building $BASE and the work tree"
mkdir -p "$TMP/base"
git archive "$BASE" | tar -x -C "$TMP/base"
(cd "$TMP/base" && go build -o "$TMP/rmacsim-base" ./cmd/rmacsim)
go build -o "$TMP/rmacsim-work" ./cmd/rmacsim

# fp BIN ARGS... prints the run's fingerprint line, or FAILED(exit code).
fp() {
    local bin=$1 out code=0
    shift
    out=$("$bin" "$@" 2>&1) || code=$?
    if [ "$code" -ne 0 ]; then
        echo "FAILED(exit $code)"
        return
    fi
    grep '^fingerprint' <<<"$out" || echo "FAILED(no fingerprint line)"
}

runs=0
bad=0
# check ARGS... runs one config on both builds and prints the pair.
check() {
    local a b status=same
    a=$(fp "$TMP/rmacsim-base" "$@")
    b=$(fp "$TMP/rmacsim-work" "$@")
    runs=$((runs + 1))
    if [ "$a" != "$b" ] || [[ "$a" == FAILED* ]]; then
        status=DIFF
        bad=$((bad + 1))
    fi
    echo "$status $*"
    echo "  base: $a"
    echo "  work: $b"
}

for proto in rmac bmmm bmw lbp mx dot11; do
    for scen in stationary speed2; do
        for imp in "" "-burst 0.2 -avail 0.9"; do
            for shards in 0 2; do
                for seed in 1 2; do
                    # shellcheck disable=SC2086
                    check -protocol "$proto" -scenario "$scen" $imp -shards "$shards" -seed "$seed" \
                        -nodes 40 -field-w 400 -field-h 150 -packets 30 -rate 20
                done
            done
        done
        for shards in 0 2; do
            check -protocol "$proto" -scenario "$scen" -shards "$shards" -seed 1 \
                -nodes 120 -field-w 600 -field-h 300 -sources 2 -packets 20 -rate 40
        done
    done
done

echo "== $runs configs, $bad mismatched or failed"
[ "$bad" -eq 0 ]
