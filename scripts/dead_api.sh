#!/usr/bin/env bash
# Public functions nobody calls: every `pub fn` / `pub(crate) fn` name declared
# under crates/*/src and src/ that occurs exactly once — its own declaration —
# as a word in the Rust sources of crates/, src/, tests/, examples/ and
# benchmarks/perf/src. Comment-only lines are skipped, so a doc mention does not
# keep a function alive, and so is a file's `#[cfg(test)]` section (from its
# first `#[cfg(test)]` line on, as scripts/loc.sh counts), so a function whose
# only callers are its own unit tests is reported too. Prints one name per line
# and exits 1 if there are any.
#
# It counts words, not resolved paths, so it cannot see a dead function whose
# name collides with a live one (another type's `new`, a field or a local of
# the same name, the name inside a string). It never reports a function that
# non-test code calls.
# Run from anywhere: ./scripts/dead_api.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

dead=$(find crates src tests examples benchmarks/perf/src -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { skip = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
  skip || /^[[:space:]]*\/\// { next }
  {
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      word = substr(line, RSTART, RLENGTH)
      seen[word]++
      line = substr(line, RSTART + RLENGTH)
    }
  }
  FILENAME ~ /^(crates\/[^\/]*\/src|src)\// && match($0, /pub(\(crate\))? ((const|async|unsafe) )*fn [A-Za-z_][A-Za-z0-9_]*/) {
    decl = substr($0, RSTART, RLENGTH)
    sub(/.* /, "", decl)
    names[decl] = 1
  }
  END { for (n in names) if (seen[n] == 1) print n }
' | sort)

if [ -n "$dead" ]; then
  echo "$dead"
  exit 1
fi
