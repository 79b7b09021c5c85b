#!/usr/bin/env bash
# Builds skysqld and the benchmark from this source tree, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, reports and spans all stay under
# .bench_build/ in the tree.
set -euo pipefail
out=.bench_build/perfbench
mkdir -p "$out"
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/skysqld" ./cmd/skysqld
go build -C perfbench -o "../$out/perfbench" .
exec "$out/perfbench" -skysqld "$out/skysqld" -out "$out" "$@"
