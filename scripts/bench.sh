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
# Given a parent revision, it records a trajectory pair instead: it builds
# the parent's test binaries from a temporary checkout of that revision
# (git archive, so an interrupted run leaves nothing registered in .git)
# and the working tree's beside them, then alternates the two sides run by
# run, swapping which side goes first every round. A host slowdown then
# lands on both sides alike instead of on one recording. It writes the
# parent's summary and then the change's; by default they take the next
# two free BENCH_<date>[b-z].json names, so bench_compare.sh diffs them.
#
# Usage: scripts/bench.sh [output.json]
#        scripts/bench.sh -parent REV [parent.json change.json]
#   FIG_BENCHTIME=3x scripts/bench.sh   # more figure iterations
#   FIG_WORKERS=1 scripts/bench.sh      # force the sequential engine
set -euo pipefail
cd "$(dirname "$0")/.."

PARENT=""
if [ "${1:-}" = "-parent" ]; then
  PARENT="${2:?-parent needs a revision}"
  shift 2
fi

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
DATE="$(date +%Y-%m-%d)"
COUNT=5

# next_free prints the first BENCH_<date>[b-z].json name that neither
# exists nor is taken by the names given.
next_free() {
  local s f
  for s in "" b c d e f g h i j k l m n o p q r s t u v w x y z; do
    f="BENCH_$DATE$s.json"
    if [ ! -e "$f" ] && [[ " $* " != *" $f "* ]]; then
      echo "$f"
      return
    fi
  done
  echo "bench.sh: no free BENCH_$DATE name" >&2
  exit 1
}

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Sides: a source tree, a commit label and an output file each.
if [ -n "$PARENT" ]; then
  mkdir "$WORK/parent-src"
  git archive --format=tar "$PARENT" | tar -x -C "$WORK/parent-src"
  SIDES=(parent change)
  SRC_parent="$WORK/parent-src"
  COMMIT_parent="$(git rev-parse --short "$PARENT")"
  OUT_parent="${1:-$(next_free)}"
  OUT_change="${2:-$(next_free "$OUT_parent")}"
else
  SIDES=(change)
  OUT_change="${1:-BENCH_$DATE.json}"
fi
SRC_change="$PWD"
COMMIT_change="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Each set: package directory; -bench pattern; runs a side; -benchtime
# (empty: the default).
SETS=(
  "internal/sim;BenchmarkScheduleStep|BenchmarkScheduleRun|BenchmarkAdvanceChain;$COUNT;"
  "internal/sim;BenchmarkCalendarScale;$COUNT;"
  "internal/lock;BenchmarkAcquireReleaseCycle|BenchmarkAcquireReleaseInterleaved|BenchmarkAcquireConflictDispatch|BenchmarkReleaseAllWide;$COUNT;"
  "internal/core;BenchmarkTxnSubmitCommit|BenchmarkTxnTexasReserve;$COUNT;"
  "internal/ocb;BenchmarkOCBGenerate;$COUNT;"
  "internal/ocb;BenchmarkStreamGen1M|BenchmarkStreamGenerateInto|BenchmarkStreamAccess;$COUNT;"
  ".;BenchmarkFig6|BenchmarkLargeMPL|BenchmarkStreamMillionObjects;1;${FIG_BENCHTIME:-1x}"
)

# bin <side> <package directory> names the side's test binary of it.
bin() { local b="${2//\//_}"; echo "$WORK/$1/${b/#./root}.test"; }

# Build every side's test binaries before the first run, so no build
# overlaps a measurement.
for side in "${SIDES[@]}"; do
  src="SRC_$side"
  for pkg in $(printf '%s\n' "${SETS[@]}" | cut -d';' -f1 | sort -u); do
    (cd "${!src}" && go test -c -o "$(bin "$side" "$pkg")" "./$pkg")
  done
  : > "$WORK/$side.out"
done

for g in "${SETS[@]}"; do
  IFS=';' read -r pkg pattern runs benchtime <<< "$g"
  for ((k = 0; k < runs; k++)); do
    order=("${SIDES[@]}")
    if [ "${#SIDES[@]}" -eq 2 ] && [ $((k % 2)) -eq 1 ]; then
      order=("${SIDES[1]}" "${SIDES[0]}")
    fi
    for side in "${order[@]}"; do
      src="SRC_$side"
      echo "== $side: $pkg run $((k + 1))/$runs" >&2
      (cd "${!src}/$pkg" && "$(bin "$side" "$pkg")" -test.run '^$' -test.bench "$pattern" \
        -test.benchmem -test.timeout 10m ${benchtime:+-test.benchtime "$benchtime"}) | tee -a "$WORK/$side.out"
    done
  done
done

# summarize <run output> <commit> writes the BENCH JSON of one side.
summarize() {
awk -v date="$DATE" \
    -v commit="$2" \
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
}' "$1"
}

for side in "${SIDES[@]}"; do
  commit="COMMIT_$side" out="OUT_$side"
  summarize "$WORK/$side.out" "${!commit}" > "${!out}"
  echo "wrote ${!out} ($side, ${!commit})"
done
