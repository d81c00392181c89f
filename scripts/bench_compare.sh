#!/usr/bin/env bash
# bench_compare.sh — diff the two most recent BENCH_*.json trajectory
# files and fail when a guarded benchmark's allocs/op regressed by more
# than the threshold (default 10 %). Benchmarks present in only one file
# are reported and skipped, so adding a benchmark never breaks the gate.
#
# An opt-in ns/op gate holds CPU-time wins the same way: set NS_GATE_PCT
# to a percentage (25 is a generous default for same-machine trajectory
# points) and the high-iteration kernel microbenchmarks in NS_GUARDED must
# not regress by more than that. It is opt-in (unset = off) because ns/op
# only compares meaningfully between points recorded on the same hardware,
# while the allocs/bytes gate is exact everywhere.
#
# Usage: scripts/bench_compare.sh [old.json new.json]
#   THRESHOLD_PCT=25 scripts/bench_compare.sh   # loosen the allocs gate
#   GUARDED="BenchmarkFoo BenchmarkBar" scripts/bench_compare.sh
#   NS_GATE_PCT=25 scripts/bench_compare.sh     # enable the ns/op gate
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD_PCT="${THRESHOLD_PCT:-10}"
NS_GATE_PCT="${NS_GATE_PCT:-}"
# ns/op-gated benchmarks: the steady-state microbenchmarks whose iteration
# counts are high enough for stable timing (figure-level benches run 1-3
# iterations and stay alloc-gated only).
NS_GUARDED="${NS_GUARDED:-BenchmarkScheduleStep BenchmarkScheduleCancel \
BenchmarkScheduleStepChain \
BenchmarkAcquireReleaseCycle BenchmarkReleaseAllWide BenchmarkTxnSubmitCommit}"
GUARDED="${GUARDED:-BenchmarkScheduleStep BenchmarkScheduleCancel BenchmarkScheduleRun \
BenchmarkReleaseAllWide \
BenchmarkAcquireReleaseCycle BenchmarkAcquireConflictDispatch BenchmarkTxnSubmitCommit \
BenchmarkOCBGenerate BenchmarkOCBGenerateInto BenchmarkFig6_O2Instances20 \
BenchmarkStreamAccess/hit BenchmarkStreamAccess/miss}"

# Residency gate: the streaming layout's whole point is O(hot-set + classes)
# resident memory — fail if the 1M-object streaming base's resident bytes
# ever grow past this ceiling (eager-v2 carries ~58 MB at the same point).
STREAM_RESIDENT_CEILING="${STREAM_RESIDENT_CEILING:-4194304}"

if [ "$#" -eq 2 ]; then
  OLD="$1"; NEW="$2"
else
  # BENCH_<date>[suffix].json sorts chronologically by name.
  mapfile -t files < <(ls BENCH_*.json 2>/dev/null | sort)
  if [ "${#files[@]}" -lt 2 ]; then
    echo "bench_compare: need at least two BENCH_*.json files (found ${#files[@]}); nothing to compare"
    exit 0
  fi
  OLD="${files[-2]}"; NEW="${files[-1]}"
fi
echo "bench_compare: $OLD -> $NEW (allocs/op threshold +${THRESHOLD_PCT}%)"

# alloc_of <file> <benchmark> — print allocs_per_op, or nothing if absent.
# Uses | as the sed delimiter: sub-benchmark names contain slashes.
alloc_of() {
  sed -n 's|.*"name": "'"$2"'".*"allocs_per_op": \([0-9][0-9]*\).*|\1|p' "$1" | head -n1
}

fail=0
for bench in $GUARDED; do
  old_allocs="$(alloc_of "$OLD" "$bench")"
  new_allocs="$(alloc_of "$NEW" "$bench")"
  if [ -z "$old_allocs" ] || [ -z "$new_allocs" ]; then
    echo "  skip  $bench (missing in $([ -z "$old_allocs" ] && echo "$OLD" || echo "$NEW"))"
    continue
  fi
  # Integer guard: regression iff new*100 > old*(100+threshold). A zero
  # baseline therefore fails on any nonzero value.
  if [ "$((new_allocs * 100))" -gt "$((old_allocs * (100 + THRESHOLD_PCT)))" ]; then
    echo "  FAIL  $bench allocs/op ${old_allocs} -> ${new_allocs}"
    fail=1
  else
    echo "  ok    $bench allocs/op ${old_allocs} -> ${new_allocs}"
  fi
done

# ns_of <file> <benchmark> — print ns_per_op (possibly fractional), or
# nothing if absent.
ns_of() {
  sed -n 's|.*"name": "'"$2"'".*"ns_per_op": \([0-9][0-9.]*\).*|\1|p' "$1" | head -n1
}

if [ -n "$NS_GATE_PCT" ]; then
  echo "bench_compare: ns/op gate enabled (+${NS_GATE_PCT}%)"
  for bench in $NS_GUARDED; do
    old_ns="$(ns_of "$OLD" "$bench")"
    new_ns="$(ns_of "$NEW" "$bench")"
    if [ -z "$old_ns" ] || [ -z "$new_ns" ]; then
      echo "  skip  $bench ns/op (missing in $([ -z "$old_ns" ] && echo "$OLD" || echo "$NEW"))"
      continue
    fi
    # ns/op values are floats; compare in awk. Regression iff
    # new > old * (1 + pct/100).
    if awk -v o="$old_ns" -v n="$new_ns" -v p="$NS_GATE_PCT" \
         'BEGIN { exit !(n > o * (1 + p / 100)) }'; then
      echo "  FAIL  $bench ns/op ${old_ns} -> ${new_ns}"
      fail=1
    else
      echo "  ok    $bench ns/op ${old_ns} -> ${new_ns}"
    fi
  done
fi

# db_resident_bytes of the streaming million-object run (absolute ceiling,
# not a relative diff: the claim is O(hot-set), independent of history).
resident="$(sed -n 's|.*"name": "BenchmarkStreamMillionObjects/stream".*"db_resident_bytes": \([0-9][0-9.]*\).*|\1|p' "$NEW" | head -n1)"
if [ -n "$resident" ]; then
  # Truncate a possible decimal (the metric is a float in older files).
  resident="${resident%%.*}"
  if [ "$resident" -gt "$STREAM_RESIDENT_CEILING" ]; then
    echo "  FAIL  BenchmarkStreamMillionObjects/stream resident ${resident} B > ceiling ${STREAM_RESIDENT_CEILING} B"
    fail=1
  else
    echo "  ok    BenchmarkStreamMillionObjects/stream resident ${resident} B (ceiling ${STREAM_RESIDENT_CEILING} B)"
  fi
fi
exit "$fail"
