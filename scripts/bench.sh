#!/usr/bin/env bash
# bench.sh — run the kernel, lock-table, transaction-pipeline (the Texas
# fault path included) and OCB microbenchmarks plus the headline figure
# benchmark with -benchmem and write a BENCH_<date>.json summary, so
# successive PRs accumulate a comparable performance trajectory.
#
# Each microbenchmark runs COUNT times; the summary records the median
# ns/op (and that run's iteration count) and the largest B/op and
# allocs/op, so one noisy run on a shared machine neither moves the ns/op
# gate of scripts/bench_compare.sh nor hides an allocation. The
# figure-level benchmarks run once, at FIG_BENCHTIME.
#
# Usage: scripts/bench.sh [output.json]
#   FIG_BENCHTIME=3x scripts/bench.sh   # more figure iterations
#   FIG_WORKERS=1 scripts/bench.sh      # force the sequential engine
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_$(date +%Y-%m-%d).json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# Worker count of the figure benchmark's replication engine: 0 = all cores
# (the Experiment default). Recorded in the JSON so parallel and sequential
# trajectory points are distinguishable. Non-numeric values would be
# ignored by the benchmark but corrupt the JSON — reject them here.
WORKERS="${FIG_WORKERS:-0}"
case "$WORKERS" in
  ''|*[!0-9]*) echo "FIG_WORKERS must be a non-negative integer, got '$WORKERS'" >&2; exit 1;;
esac
export FIG_WORKERS="$WORKERS"
# Real core count of the machine, recorded in the JSON so trajectory
# readers can tell single-core points from multi-core ones.
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)"
GOMAXPROCS_EFF="${GOMAXPROCS:-$CORES}"

COUNT=5
{
  go test -run '^$' -bench 'BenchmarkScheduleStep|BenchmarkScheduleRun|BenchmarkAdvanceChain' -benchmem -count "$COUNT" ./internal/sim/
  go test -run '^$' -bench 'BenchmarkCalendarScale' -benchmem -count "$COUNT" ./internal/sim/
  go test -run '^$' -bench 'BenchmarkAcquireReleaseCycle|BenchmarkAcquireReleaseInterleaved|BenchmarkAcquireConflictDispatch|BenchmarkReleaseAllWide' -benchmem -count "$COUNT" ./internal/lock/
  go test -run '^$' -bench 'BenchmarkTxnSubmitCommit|BenchmarkTxnTexasReserve' -benchmem -count "$COUNT" ./internal/core/
  go test -run '^$' -bench 'BenchmarkOCBGenerate' -benchmem -count "$COUNT" ./internal/ocb/
  go test -run '^$' -bench 'BenchmarkStreamGen1M|BenchmarkStreamGenerateInto|BenchmarkStreamAccess' -benchmem -count "$COUNT" ./internal/ocb/
  go test -run '^$' -bench 'BenchmarkFig6|BenchmarkLargeMPL|BenchmarkStreamMillionObjects' -benchtime "${FIG_BENCHTIME:-1x}" -benchmem .
} | tee "$TMP"

awk -v date="$(date +%Y-%m-%d)" \
    -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -v cores="$CORES" \
    -v gomaxprocs="$GOMAXPROCS_EFF" \
    -v workers="$WORKERS" '
# max keeps the larger of two numeric fields; "" is below everything.
function max(a, b) { return (a == "" || b + 0 > a + 0) ? b : a }
/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  if (!(name in runs)) order[n++] = name
  k = ++runs[name]
  iters[name, k] = $2; ns[name, k] = $3
  # Deterministic per-run metrics (I/Os, calendar depth, residency,
  # bypass rate) read the same in every run; the last one is kept.
  for (i = 4; i <= NF; i++) {
    if ($(i) == "B/op") bop[name] = max(bop[name], $(i - 1))
    else if ($(i) == "allocs/op") aop[name] = max(aop[name], $(i - 1))
    else if ($(i) == "ios/point" || $(i) == "headline" || $(i) == "ios") ios[name] = $(i - 1)
    else if ($(i) == "peakcal") peak[name] = $(i - 1)
    else if ($(i) == "dbbytes") dbb[name] = $(i - 1)
    else if ($(i) == "bytes/obj") bpo[name] = $(i - 1)
    else if ($(i) == "bypass") byp[name] = $(i - 1)
  }
}
END {
  printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"cores\": \"%s\",\n  \"gomaxprocs\": \"%s\",\n  \"fig_workers\": %s,\n  \"benchmarks\": [\n", date, commit, cores, gomaxprocs, workers
  for (j = 0; j < n; j++) {
    name = order[j]; m = runs[name]
    # Insertion-sort the runs by ns/op (mawk has no asort) and take the
    # middle one: the median of an odd count.
    for (a = 1; a <= m; a++) {
      x = a
      for (b = a - 1; b >= 1 && ns[name, idx[b]] + 0 > ns[name, x] + 0; b--) idx[b + 1] = idx[b]
      idx[b + 1] = x
    }
    mid = idx[int((m + 1) / 2)]
    line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"runs\": %d", name, iters[name, mid], ns[name, mid], m)
    if (bop[name] != "") line = line sprintf(", \"bytes_per_op\": %s", bop[name])
    if (aop[name] != "") line = line sprintf(", \"allocs_per_op\": %s", aop[name])
    if (ios[name] != "") line = line sprintf(", \"ios_per_point\": %s", ios[name])
    if (peak[name] != "") line = line sprintf(", \"peak_calendar_depth\": %s", peak[name])
    if (dbb[name] != "") line = line sprintf(", \"db_resident_bytes\": %s", dbb[name])
    if (bpo[name] != "") line = line sprintf(", \"bytes_per_object\": %s", bpo[name])
    if (byp[name] != "") line = line sprintf(", \"bypass_rate\": %s", byp[name])
    printf "%s}%s\n", line, (j < n - 1 ? "," : "")
  }
  printf "  ]\n}\n"
}' "$TMP" > "$OUT"

echo "wrote $OUT"
