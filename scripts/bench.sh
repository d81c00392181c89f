#!/usr/bin/env bash
# bench.sh — run the kernel, lock-table, transaction-pipeline, and OCB
# microbenchmarks plus the headline figure benchmark with -benchmem and
# write a BENCH_<date>.json summary, so successive PRs accumulate a
# comparable performance trajectory.
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

{
  go test -run '^$' -bench 'BenchmarkScheduleStep|BenchmarkScheduleCancel|BenchmarkScheduleRun' -benchmem ./internal/sim/
  go test -run '^$' -bench 'BenchmarkCalendarScale' -benchmem ./internal/sim/
  go test -run '^$' -bench 'BenchmarkAcquireReleaseCycle|BenchmarkAcquireConflictDispatch|BenchmarkReleaseAllWide' -benchmem ./internal/lock/
  go test -run '^$' -bench 'BenchmarkTxnSubmitCommit' -benchmem ./internal/core/
  go test -run '^$' -bench 'BenchmarkOCBGenerate' -benchmem ./internal/ocb/
  go test -run '^$' -bench 'BenchmarkStreamGen1M|BenchmarkStreamAccess' -benchmem ./internal/ocb/
  go test -run '^$' -bench 'BenchmarkFig6|BenchmarkLargeMPL|BenchmarkStreamMillionObjects' -benchtime "${FIG_BENCHTIME:-1x}" -benchmem .
} | tee "$TMP"

awk -v date="$(date +%Y-%m-%d)" \
    -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -v cores="$CORES" \
    -v gomaxprocs="$GOMAXPROCS_EFF" \
    -v workers="$WORKERS" '
/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  iters = $2; ns = $3
  bop = ""; aop = ""; ios = ""; peak = ""; dbb = ""; bpo = ""; byp = ""
  for (i = 4; i <= NF; i++) {
    if ($(i) == "B/op") bop = $(i - 1)
    else if ($(i) == "allocs/op") aop = $(i - 1)
    else if ($(i) == "ios/point" || $(i) == "headline" || $(i) == "ios") ios = $(i - 1)
    else if ($(i) == "peakcal") peak = $(i - 1)
    else if ($(i) == "dbbytes") dbb = $(i - 1)
    else if ($(i) == "bytes/obj") bpo = $(i - 1)
    else if ($(i) == "bypass") byp = $(i - 1)
  }
  line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
  if (bop != "") line = line sprintf(", \"bytes_per_op\": %s", bop)
  if (aop != "") line = line sprintf(", \"allocs_per_op\": %s", aop)
  if (ios != "") line = line sprintf(", \"ios_per_point\": %s", ios)
  if (peak != "") line = line sprintf(", \"peak_calendar_depth\": %s", peak)
  if (dbb != "") line = line sprintf(", \"db_resident_bytes\": %s", dbb)
  if (bpo != "") line = line sprintf(", \"bytes_per_object\": %s", bpo)
  if (byp != "") line = line sprintf(", \"bypass_rate\": %s", byp)
  lines[n++] = line "}"
}
END {
  printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"cores\": \"%s\",\n  \"gomaxprocs\": \"%s\",\n  \"fig_workers\": %s,\n  \"benchmarks\": [\n", date, commit, cores, gomaxprocs, workers
  for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
  printf "  ]\n}\n"
}' "$TMP" > "$OUT"

echo "wrote $OUT"
