#!/usr/bin/env bash
# Reproducibility gate: the CSVs committed under results/ are what this tree
# writes. Runs the documented command (`exp all`, default LIBRA_REPS) into a
# scratch directory at two thread counts and compares every file, in both
# directions — a CSV the run writes but results/ lacks fails too.
# fig12c_sched_overhead.csv is wall-clock and skipped. After a change that
# moves a simulated number on purpose, regenerate with
#   cargo run --release -p libra-bench --bin exp -- all
# (no LIBRA_REPS / LIBRA_RESULTS_DIR set) and commit results/ with it.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for threads in 1 4; do
  out="$(mktemp -d)"
  env -u LIBRA_REPS LIBRA_THREADS="$threads" LIBRA_RESULTS_DIR="$out" \
    cargo run --release -q -p libra-bench --bin exp -- all > /dev/null
  for name in $({ ls "$out"; ls results; } | grep '\.csv$' | sort -u); do
    [ "$name" = fig12c_sched_overhead.csv ] && continue
    cmp "$out/$name" "results/$name" || status=1
  done
  rm -rf "$out"
done
exit "$status"
