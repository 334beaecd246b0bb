#!/usr/bin/env bash
# Computed subscripts: every `x[..]` with arithmetic between the brackets
# (`buf[off + 2]`, `bins[v / w]`, `v[a..b + 1]`) in the non-test lines of the
# crates that index arenas by typed id (`nodes[id.idx()]`, 82 times in engine.rs)
# and therefore cannot deny `clippy::indexing_slicing` whole, as libra-live,
# libra-gateway and the six files named in DESIGN.md §6 do. A plain subscript
# is checked by the arena that handed the id out; an offset that was computed is
# the one that walks off the end: use `.get()` and handle the miss. Prints
# file:line per hit and exits 1 if there are any.
#
# It reads lines, not syntax: an operator counts when rustfmt's spaces surround
# it (`cargo fmt --check` runs first in verify.sh, and a deref or a negation has
# none), and a subscript that nests another or spans lines is not seen.
# Run from anywhere: ./scripts/computed_subscripts.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

found=$(find crates/libra-{sim,core,ml,workloads,baselines}/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { skip = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
  skip || /^[[:space:]]*\/\// { next }
  { line = $0; sub(/\/\/.*/, "", line) }
  line ~ /[A-Za-z0-9_)\]?]\[[^\]]*( [-+*\/%] |<<|>>)[^\]]*\]/ { print FILENAME ":" FNR ": " $0 }
')

if [ -n "$found" ]; then
  echo "$found"
  exit 1
fi
