#!/usr/bin/env bash
# Fingerprint diff for behaviour-preserving refactors: build cmd/rmacsim
# from BASE_REF (default HEAD) and from the work tree, run one fixed
# corpus of configs on both builds, and compare one digest line of
# rmacsim's report config by config: LINE (default `fingerprint`,
# RunResult.Fingerprint, a digest of every deterministic measurement), or
# `outcome` (RunResult.Outcome, the same digest without the event count,
# for a change that moves only event bookkeeping).
#
#   scripts/fingerprints.sh [BASE_REF] [LINE]
#
# Corpus: {rmac, bmmm, bmw, lbp, mx, dot11} x {stationary, speed2} x
# {no impairment, -burst 0.2 -avail 0.9} x -shards {0, 2} x -seed {1, 2},
# each with -nodes 40 -field-w 400 -field-h 150 -packets 30 -rate 20;
# plus one grid-sized, multi-source run per MAC x scenario x -shards
# {0, 2} (-nodes 120 -field-w 600 -field-h 300 -sources 2 -packets 20
# -rate 40 -seed 1), which takes the >=96-radio spatial-grid path and
# the multi-source traffic of the large benchmark workloads; plus, per
# MAC, three runs past 2 shards and 1 s epochs (-seed 1 -packets 20
# -rate 40 -drain 1): speed2 on 4 shards with 0.25 s epochs (-nodes 200
# -field-w 1000 -field-h 300 -sources 2), speed1 on 3 shards with 0.5 s
# epochs under -burst 0.2 -avail 0.9 (-nodes 120 -field-w 800 -field-h
# 300), and a 4-shard Poisson placement (-nodes 300 -field-w 800
# -field-h 400 -sources 2), whose mobile runs install and remove ghosts
# at many epoch boundaries: 138 runs per build. rmacsim runs with its
# default -strict, so a failed, aborted, deadlocked or audit-violating
# run fails the script too.
#
# Prints the base and work-tree LINE lines for every config and exits
# non-zero on any mismatch or any non-zero rmacsim exit.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${1:-HEAD}
LINE=${2:-fingerprint}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== building $BASE and the work tree"
mkdir -p "$TMP/base"
git archive "$BASE" | tar -x -C "$TMP/base"
(cd "$TMP/base" && go build -o "$TMP/rmacsim-base" ./cmd/rmacsim)
go build -o "$TMP/rmacsim-work" ./cmd/rmacsim

# fp BIN ARGS... prints the run's LINE line, or FAILED(exit code).
fp() {
    local bin=$1 out code=0
    shift
    out=$("$bin" "$@" 2>&1) || code=$?
    if [ "$code" -ne 0 ]; then
        echo "FAILED(exit $code)"
        return
    fi
    grep "^$LINE " <<<"$out" || echo "FAILED(no $LINE line)"
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
    many="-seed 1 -packets 20 -rate 40 -drain 1"
    # shellcheck disable=SC2086
    check -protocol "$proto" $many -scenario speed2 -shards 4 -shard-epoch 0.25 \
        -nodes 200 -field-w 1000 -field-h 300 -sources 2
    # shellcheck disable=SC2086
    check -protocol "$proto" $many -scenario speed1 -shards 3 -shard-epoch 0.5 \
        -burst 0.2 -avail 0.9 -nodes 120 -field-w 800 -field-h 300
    # shellcheck disable=SC2086
    check -protocol "$proto" $many -topo poisson -shards 4 \
        -nodes 300 -field-w 800 -field-h 400 -sources 2
done

echo "== $runs configs, $bad mismatched or failed"
[ "$bad" -eq 0 ]
