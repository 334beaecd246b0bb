#!/usr/bin/env bash
# Decision fingerprint of the release-build sim_harvest run (50,000
# invocations, 200 nodes, seed 42): five counts the traced workload already
# prints. They are counts, so they repeat exactly on any machine; the goldens
# pin the action trace on a 1-node and a small chaos scenario, this pins the
# run the benchmark times. A PR that moves simulated behaviour on purpose
# updates the five numbers beside tests/golden/.
# Run from anywhere: ./scripts/harvest_fingerprint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

want='controlplane.loans_expired 3937
controlplane.safeguard_triggers 7476
engine.event_pops 1429641
pool.gets 329705
pool.puts 41742'

got=$(benchmarks/perf/run.sh --workload sim_harvest --seed 42 --seconds 3 --trace 1 | tail -1 \
  | grep -oE '"(engine\.event_pops|pool\.puts|pool\.gets|controlplane\.loans_expired|controlplane\.safeguard_triggers)":\{"value":[0-9]+' \
  | sed -E 's/^"([^"]*)":\{"value":/\1 /' | sort)

echo "$got"
if [ "$got" != "$want" ]; then
  echo "sim_harvest fingerprint moved; expected:" >&2
  echo "$want" >&2
  exit 1
fi
