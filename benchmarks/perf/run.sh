#!/usr/bin/env bash
# The repo benchmark's one command. Builds the harness, then:
#
#   run.sh [--seed N] [--seconds S]
#       every workload, plain then traced; prints every metric and writes
#       out/RESULTS.json and out/trace_<workload>.json (default seed 42)
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is its result
#   run.sh compare A.json B.json
#       B against A under each metric's bound; non-zero exit on a breach
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/libra-perf" \
    --manifest "$here/../../BENCHMARK.json" --out "$here/out" "$@"
