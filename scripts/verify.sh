#!/usr/bin/env bash
# Full verification gate: formatting, lints, build, tests.
# Run from the repo root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, deny warnings; the invariants of DESIGN.md §6 are its deny set)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> lint canary (clippy must fail on one violation per denied lint and clippy.toml entry, and name each)"
./scripts/lint_canary.sh

echo "==> computed subscripts where indexing_slicing cannot be denied (scripts/computed_subscripts.sh)"
./scripts/computed_subscripts.sh

echo "==> cargo doc (workspace, deny rustdoc warnings)"
# --exclude libra-cli: its `libra` bin collides with the root `libra` lib in
# the doc output path (cargo #6313); the CLI has no API docs to gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet --exclude libra-cli

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1: root facade crate)"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> the warm pool against the seed's fixed-TTL pool at 3000 cases (release)"
# The one reference check of the warm pool's hits, counts, sweeps and
# evictions: a plain scan of one vector, the seed oracle's own order.
PROPTEST_CASES=3000 cargo test --release -q --test proptests warm_pool_fixed_ttl_matches_seed_reference

echo "==> the benchmark runs' exact counts against BENCH_counts.json (release)"
# The three simulator workloads the benchmark times and exp scale's two runs
# at LIBRA_SCALE=0.02, reduced to counts by libra_bench::probe: events pushed,
# popped per kind and walked, hook calls, pool, safeguard and profiler counts.
# They repeat exactly on any machine and move only when what is simulated
# does; tests/bench_counts.rs also bounds sim_engine's events per invocation.
# A debug build ignores it (cfg_attr(debug_assertions, ignore)): 173 s there,
# 0.6 s here.
cargo test --release -q --test bench_counts

echo "==> libra-live unit tests and the fidelity tests twice more (release): the node drivers run on real threads"
# A timing-dependent failure that shows up in one run of three passes a gate
# that runs the suite once; two more release runs make it show. The fidelity
# tests drive live node drivers too (warm_hits_agree_under_memory_pressure
# leans on one run overlapping another by a few hundred workload ms).
for _ in 1 2; do
  cargo test --release -q -p libra-live --lib
  cargo test --release -q --test fidelity
done

echo "==> benchmark harness against the working tree (build + its unit tests)"
# benchmarks/perf is its own workspace path-depending on crates/libra-*: a
# public-API break the PR pipeline would reject shows up here first. --locked:
# a dependency-set change in a crate the harness sees would rewrite
# benchmarks/perf/Cargo.lock, a file PRs may not touch — fail instead.
cargo test --release --offline --locked -q --manifest-path benchmarks/perf/Cargo.toml

echo "==> gateway smoke (500 seeded requests over loopback, scrape /metrics)"
# gateway_loadgen exits nonzero on any 5xx-from-bugs, dropped request, or
# missing metrics series; seeded traffic keeps the run reproducible.
cargo run --release -q -p libra-gateway --bin gateway_loadgen -- --seed 42 --requests 500

echo "==> smokes through the benchmark harness (5 s each: sim_engine, conservation checked; sim_harvest, loans and safeguards; sim_libra, the profiler path; live_closed and gateway_closed, the threaded cluster)"
# The harness the PR pipeline gates on: its last stdout line is the JSON
# result, which must say the run was correct and nothing failed. sim_harvest
# is the one workload where loans, safeguard restores and oversubscription
# run in a release build: "correct" there means pool_violations == 0, i.e.
# the engine's cached per-node running-CPU sum still equals a walk of the
# resident list at the end of every repetition. sim_libra is full Libra with
# the ML profiler on (train, predict, observe, refit); 5 s holds about ten
# repetitions of it. live_closed keeps 64 invocations resident on the live
# cluster's node drivers and gateway_closed reaches the same cluster over
# loopback HTTP; "correct" there means conservation after drain, nothing
# aborted and no node ever overcommitted.
for workload in sim_engine sim_harvest sim_libra live_closed gateway_closed; do
  benchmarks/perf/run.sh --workload "$workload" --seed 42 --seconds 5 --trace 0 | tail -1 \
    | grep -q '"correct":true,"attempted":[0-9]*,"failed":0'
done

echo "==> trace-export smoke (seed workload with tracing on, grep the HTML timeline)"
# The single-set seed workload with span tracing enabled must export a
# self-contained HTML timeline that actually carries exec-stage spans.
TRACE_OUT="$(mktemp -d)"
cargo run --release -q -p libra-cli --bin libra -- \
  run --platform libra --kind single --seed 42 --trace-out "$TRACE_OUT/timeline.html"
grep -q 'data-kind="exec"' "$TRACE_OUT/timeline.html"
grep -q 'data-kind="scheduler"' "$TRACE_OUT/timeline.html"
rm -rf "$TRACE_OUT"

echo "==> examples run and print what they show (one run each, stdout grepped)"
# Each example must print the lines named after it (extended regexes): its
# table header and a row, or the one line that is its point. profiler_tour's
# VP row pins the scores of a function whose CPU score fails, which `train`
# stops at: `Profiler::scores` computes them on demand.
example_says() {
  local name=$1 out
  shift
  out=$(cargo run --release -q --example "$name")
  for want in "$@"; do
    if ! grep -Eq "$want" <<<"$out"; then
      echo "example $name printed no line matching: $want" >&2
      exit 1
    fi
  done
}
example_says quickstart '^platform +: Libra\(libra\)$' '^invocations +: 60$'
example_says timeliness 'loan of .* ended: SourceCompleted \(the timeliness law\)$'
example_says profiler_tour '^func +size-related\? +cpu acc' '^DH +true ' \
  '^VP +false +0\.30 +0\.17 +-1\.34 '
example_says live_cluster '^platform +p50 \(ms\) +p99 \(ms\)' '^harvesting +[0-9]+ +[0-9]+ '
example_says gateway_demo '^tight +#[0-9]+: 429 Too Many Requests'

echo "==> committed results/*.csv reproduce (exp all at default LIBRA_REPS, 1 and 4 threads)"
# Every CSV under results/ must be byte-equal to what this tree writes, at
# both thread counts (which also makes the two runs equal to each other: the
# order-preserving fan-out of the sweeps, keepalive and chaos included).
./scripts/check_results.sh

echo "==> exp fig07 and exp fig08 run alone reproduce their committed CSVs"
# `exp all` simulates the §8.3 run set once and hands it to Figs 6, 7 and 8;
# run alone, fig07 and fig08 simulate it themselves. check_results.sh runs
# only `exp all`, so this is the check of the standalone path.
FIG_OUT="$(mktemp -d)"
for fig in fig07 fig08; do
  env -u LIBRA_REPS LIBRA_RESULTS_DIR="$FIG_OUT" \
    cargo run --release -q -p libra-bench --bin exp -- "$fig" > /dev/null
done
for f in "$FIG_OUT"/*.csv; do
  cmp "$f" "results/$(basename "$f")"
done
rm -rf "$FIG_OUT"

echo "==> non-test Rust lines per crate (scripts/loc.sh)"
./scripts/loc.sh

echo "==> public API nobody calls, or only libra-bench uses (scripts/dead_api.sh)"
./scripts/dead_api.sh

echo "==> libra-core names the simulator's engine and Platform trait only in its platform module (scripts/sim_seam.sh)"
./scripts/sim_seam.sh

echo "==> the perf trajectory: each workload's latest inv_per_s median against its best (scripts/trajectory.sh)"
# Reads the committed BENCH_trajectory.json only, so it cannot flake; it
# fails on a record it cannot read and states no bound yet.
./scripts/trajectory.sh

echo "verify: all green"
