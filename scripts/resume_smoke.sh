#!/usr/bin/env bash
# Resume smoke: interrupt a journalled sweep with SIGTERM mid-grid, resume
# it from the checkpoint journal, and require the final CSV to be
# byte-identical to an uninterrupted run — the end-to-end proof of the
# sweep engine's checkpoint/resume contract through the real binary and a
# real signal. Then interrupt a figure reproduction (-run) the same way:
# it shares the sweep's exit statuses, so it must exit 130.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/experiments" ./cmd/experiments

# Small grid, enough replications that SIGTERM lands mid-grid on any
# machine. Every flag below is result-affecting and must match across the
# three runs (the journal fingerprint enforces this). The smoke runs once
# per object-base layout: -db-layout sets the base Params.Layout, which the
# fingerprint covers.
for layout in eager stream; do
  args=(-sweep mpl=1:4:2 -sweep buffpages=48,96 -no 600 -nc 8 -hotn 40 -reps 25 -seed 77 -db-layout "$layout" -csv)

  echo "== [$layout] uninterrupted run"
  "$workdir/experiments" "${args[@]}" > "$workdir/full.csv"

  echo "== [$layout] journalled run, SIGTERM after the first completed cell"
  journal="$workdir/grid-$layout.jsonl"
  set +e
  "$workdir/experiments" "${args[@]}" -journal "$journal" \
    > "$workdir/partial.csv" 2> "$workdir/partial.log" &
  pid=$!
  for _ in $(seq 1 600); do
    lines=$( (wc -l < "$journal") 2>/dev/null || echo 0)
    if [ "$lines" -ge 2 ]; then
      kill -TERM "$pid"
      break
    fi
    sleep 0.05
  done
  wait "$pid"
  rc=$?
  set -e
  cells=$(( $(wc -l < "$journal") - 1 ))
  echo "   interrupted: exit $rc, $cells cells journalled"
  cat "$workdir/partial.log"

  if [ "$rc" -eq 130 ]; then
    if [ "$cells" -ge 4 ]; then
      echo "interrupted run journalled every cell; interruption landed too late" >&2
      exit 1
    fi
  elif [ "$rc" -ne 0 ]; then
    echo "interrupted run exited $rc (want 130 on SIGTERM or 0 if it outran the signal)" >&2
    exit 1
  fi

  echo "== [$layout] resumed run"
  "$workdir/experiments" "${args[@]}" -resume "$journal" > "$workdir/resumed.csv"

  echo "== [$layout] byte-compare resumed vs uninterrupted"
  cmp "$workdir/full.csv" "$workdir/resumed.csv"
  echo "resume smoke OK ($layout): resumed CSV is byte-identical"
done

# A -run reproduction runs the same loop as -sweep, so a signal must end it
# with exit status 130 and its unreached points rendered as pending.
echo "== -run fig6, SIGTERM after the first progress line"
set +e
"$workdir/experiments" -run fig6 -reps 60 -workers 1 -v \
  > "$workdir/fig6.out" 2> "$workdir/fig6.log" &
pid=$!
for _ in $(seq 1 1200); do
  if [ -s "$workdir/fig6.log" ]; then
    kill -TERM "$pid"
    break
  fi
  sleep 0.05
done
wait "$pid"
rc=$?
set -e
cat "$workdir/fig6.log"
if [ "$rc" -eq 130 ]; then
  if ! grep -q '(pending)' "$workdir/fig6.out"; then
    echo "interrupted -run rendered no pending point" >&2
    exit 1
  fi
elif [ "$rc" -ne 0 ]; then
  echo "interrupted -run exited $rc (want 130 on SIGTERM or 0 if it outran the signal)" >&2
  exit 1
fi
echo "-run interrupt OK (exit $rc)"
