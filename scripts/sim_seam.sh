#!/usr/bin/env bash
# The seam between libra-core and the simulator: outside its `platform`
# module (platform.rs or platform/), no crates/libra-core/src file may name the
# simulator's engine or its `Platform` trait. A line breaks the seam when it
#
#   * names one of the words Platform, PlatformOverheads, PlatformReport, or
#   * names a `libra_sim::` path that does not start with an allowed one.
#
# The allowed paths are the simulator's vocabulary (time, ids, resources,
# invocation records, the function model, the warm-pool window, metrics
# helpers and a shard's slice): the first draft of the leaf crate that the
# policy core and the simulator will share. `libra_sim::engine`,
# `libra_sim::prelude` and a grouped `libra_sim::{..}` import are not among
# them, so each import names one vocabulary module.
#
# Comment-only lines are skipped, and so is a file's test module: everything
# from a `#[cfg(test)]` line whose item is a `mod` (on the same line or the
# next) to the end of the file, since tests may drive the simulator. A
# `#[cfg(test)]` on any other item (a test-only method, say) skips nothing,
# so the production lines after it are still checked. Prints
# `file:line: text` for every break and exits 1 if there are any.
# Run from anywhere: ./scripts/sim_seam.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

allowed='container::KEEPALIVE|demand::|function::|ids::|invocation::|metrics::|node::Slice|platform::LoanEnd|resources::|time::'

breaks=$(find crates/libra-core/src -name '*.rs' ! -path '*/platform.rs' ! -path '*/platform/*' \
  -print0 | sort -z | xargs -0 awk -v allowed="^libra_sim::($allowed)" '
  FNR == 1 { skip = 0; pending = 0 }
  skip { next }
  pending && /^[[:space:]]*(pub[^[:space:]]* )?mod[[:space:]]/ { skip = 1; next }
  { pending = 0 }
  /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
  /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*(pub[^[:space:]]* )?mod[[:space:]]/ { skip = 1; next }
  /^[[:space:]]*\/\// { next }
  {
    bad = 0
    line = $0
    while (match(line, /libra_sim::[A-Za-z_:{]*/)) {
      if (substr(line, RSTART, RLENGTH) !~ allowed) bad = 1
      line = substr(line, RSTART + RLENGTH)
    }
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      word = substr(line, RSTART, RLENGTH)
      if (word == "Platform" || word == "PlatformOverheads" || word == "PlatformReport") bad = 1
      line = substr(line, RSTART + RLENGTH)
    }
    if (bad) print FILENAME ":" FNR ": " $0
  }
')

if [ -n "$breaks" ]; then
  echo "$breaks"
  exit 1
fi
