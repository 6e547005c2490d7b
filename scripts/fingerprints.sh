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
# each with -nodes 40 -field-w 400 -field-h 150 -packets 30 -rate 20:
# 96 runs per build. rmacsim runs with its default -strict, so a failed,
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
for proto in rmac bmmm bmw lbp mx dot11; do
    for scen in stationary speed2; do
        for imp in "" "-burst 0.2 -avail 0.9"; do
            for shards in 0 2; do
                for seed in 1 2; do
                    # shellcheck disable=SC2206
                    args=(-protocol "$proto" -scenario "$scen" $imp -shards "$shards" -seed "$seed"
                        -nodes 40 -field-w 400 -field-h 150 -packets 30 -rate 20)
                    a=$(fp "$TMP/rmacsim-base" "${args[@]}")
                    b=$(fp "$TMP/rmacsim-work" "${args[@]}")
                    runs=$((runs + 1))
                    status=same
                    if [ "$a" != "$b" ] || [[ "$a" == FAILED* ]]; then
                        status=DIFF
                        bad=$((bad + 1))
                    fi
                    echo "$status ${args[*]}"
                    echo "  base: $a"
                    echo "  work: $b"
                done
            done
        done
    done
done

echo "== $runs configs, $bad mismatched or failed"
[ "$bad" -eq 0 ]
