#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload pagerank-refine --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
