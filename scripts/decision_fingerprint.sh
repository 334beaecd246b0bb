#!/usr/bin/env bash
# Decision fingerprints of the release-build simulator runs the benchmark
# times, at seed 42: exact counts the traced workloads already print.
# sim_engine (75,000 invocations, 300 nodes, NullPlatform) pins how many
# events the engine pushed and popped and how many invocations were live at
# once; sim_harvest (50,000 invocations, 200 nodes, Libra without the
# profiler) pins what the control plane decided and how many placement
# decisions it took (one per invocation: no admission was refused and
# retried); sim_libra (150 invocations, 100 nodes, full Libra) adds what the
# profiler was asked and how many rows it fitted, and moves if any prediction
# does, because grants, loans and finish times follow the predictions. Those counts say the simulated run is the same,
# so a speed claim is made on the same run. Each workload also pins
# hook.on_tick.calls, the monitor visits made: a node's tick visits a resident
# only once the wake condition its last visit left holds (DESIGN.md §2.1) —
# its footprint reaching the safeguard's trip line, its node changing, every
# tick, or never — so there is one visit per invocation under NullPlatform,
# and tests/watched_visits.rs shows that the visits skipped were no-ops. They
# are counts, so they repeat exactly on any machine; the goldens
# pin the action trace on a 1-node and a small chaos scenario, this pins the
# runs a speed claim is made on. A change that moves simulated behaviour, or
# which residents are visited, on purpose updates the numbers beside
# tests/golden/.
# Run from anywhere: ./scripts/decision_fingerprint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A want
want[sim_engine]='engine.event_pops 1505092
engine.event_pushes 1505394
engine.peak_live_inv 797
hook.on_tick.calls 75000'
want[sim_harvest]='controlplane.loans_expired 3937
controlplane.safeguard_triggers 7476
engine.event_pops 1429641
hook.on_tick.calls 420058
hook.select_node.calls 50000
pool.gets 329705
pool.puts 41742'
want[sim_libra]='controlplane.loans_expired 9
controlplane.safeguard_triggers 10
engine.event_pops 20275
hook.on_tick.calls 607
pool.gets 72
pool.puts 78
profiler.observe.calls 150
profiler.predict.calls 87
profiler.rows_max 133
profiler.train.calls 63'

for workload in sim_engine sim_harvest sim_libra; do
  # Every wanted name, as the alternation of a regex with its dots escaped.
  names=$(cut -d' ' -f1 <<<"${want[$workload]}" | sed 's/\./\\./g' | paste -sd'|')
  got=$(benchmarks/perf/run.sh --workload "$workload" --seed 42 --seconds 3 --trace 1 | tail -1 \
    | grep -oE "\"($names)\":\{\"value\":[0-9]+" \
    | sed -E 's/^"([^"]*)":\{"value":/\1 /' | sort)
  echo "$workload:"
  echo "$got"
  if [ "$got" != "${want[$workload]}" ]; then
    echo "$workload fingerprint moved; expected:" >&2
    echo "${want[$workload]}" >&2
    exit 1
  fi
done
