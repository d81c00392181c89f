#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload paper-o2 --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache and profile stays under .bench_build/ in the
# current directory; nothing is fetched over the network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" PPROF_TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
