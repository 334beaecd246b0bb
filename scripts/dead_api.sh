#!/usr/bin/env bash
# Two reports on the public API.
#
# 1. Public functions nobody calls: every `pub fn` / `pub(crate) fn` name
# declared under crates/*/src and src/ that occurs exactly once — its own
# declaration — as a word in the Rust sources of crates/, src/, tests/,
# examples/ and benchmarks/perf/src. Comment-only lines are skipped, so a doc
# mention does not keep a function alive, and so is a file's `#[cfg(test)]`
# section (from its first `#[cfg(test)]` line on, as scripts/loc.sh counts),
# so a function whose only callers are its own unit tests is reported too.
# Prints one name per line and exits 1 if there are any.
#
# 2. Public items only the experiment harness uses: every `pub`
# fn/struct/enum/const/type/trait declared under crates/*/src or src/,
# outside libra-bench and libra-cli, whose name occurs as a word in
# crates/libra-bench and has no other use. A use is any line of the
# declaring file's non-test code except the item's own declaration and
# `impl` header lines; any line of another file's code under crates/*/src,
# src/, examples/ or benchmarks/perf/src (the harness naming an item keeps it
# where it is); and any test outside libra-bench: tests/, crates/*/tests/ and
# other files' `#[cfg(test)]` sections. `pub use` re-exports do not count as
# uses. Each is an item to move into libra-bench. Printed as `file name`
# lines under a header; exits 1 if there are any.
#
# Both count words, not resolved paths, so they cannot see a dead function
# whose name collides with a live one (another type's `new`, a field or a
# local of the same name, the name inside a string). Report 1 never reports
# a function that non-test code calls, and report 2 never reports an item
# that shipped code or a test outside libra-bench names.
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

bench_only=$(find crates/*/src src examples benchmarks/perf/src tests crates/*/tests -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 {
    skip = 0; reexport = 0; files[FILENAME] = 1
    bench = FILENAME ~ /^crates\/libra-bench\//
    testfile = FILENAME ~ /^(crates\/[^\/]*\/)?tests\//
  }
  /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
  /^[[:space:]]*\/\// { next }
  reexport || /^[[:space:]]*pub(\([^)]*\))? use / { reexport = $0 !~ /;/; next }
  {
    own = !bench && !skip && !testfile && $0 !~ /^[[:space:]]*(unsafe )?impl[[:space:]<]/
    decl = ""
    if (!bench && !skip && !testfile && FILENAME ~ /^(crates\/[^\/]*\/src|src)\// && FILENAME !~ /^crates\/libra-cli\// &&
        match($0, /^[[:space:]]*pub ((const|async|unsafe) )*(fn|struct|enum|const|type|trait) [A-Za-z_][A-Za-z0-9_]*/)) {
      decl = substr($0, RSTART, RLENGTH)
      sub(/.* /, "", decl)
      decls[decl, FILENAME] = 1
    }
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      word = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      if (bench) { if (!skip) benchuse[word]++; continue }
      uses[word, FILENAME]++
      if (own && word != decl) ownuses[word, FILENAME]++
    }
  }
  END {
    for (d in decls) {
      split(d, key, SUBSEP)
      if (!(key[1] in benchuse) || (key[1], key[2]) in ownuses) continue
      other = 0
      for (f in files) if (f != key[2] && (key[1], f) in uses) other++
      if (!other) print key[2], key[1]
    }
  }
' | sort)

status=0
if [ -n "$dead" ]; then
  echo "$dead"
  status=1
fi
if [ -n "$bench_only" ]; then
  echo "-- pub items used only by crates/libra-bench (move each into its experiment):"
  echo "$bench_only"
  status=1
fi
exit $status
