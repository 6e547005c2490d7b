#!/usr/bin/env bash
# Builds the benchmark (bench/, a Go module of its own) from source and
# runs it with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh sweep -runs 10 -out new.json
#   bash bench/run.sh compare bench/results/baseline-1.json new.json
#
# Everything the build writes (binary, Go caches, temporary files, Go's
# own configuration and telemetry) stays under .bench_build/ here.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# VCS stamping puts the commit into the provenance; outside a git checkout,
# or where git refuses the tree, build without it.
go -C bench build -o "$out/rmacbench" . 2>/dev/null ||
	go -C bench build -buildvcs=false -o "$out/rmacbench" .
exec "$out/rmacbench" "$@"
