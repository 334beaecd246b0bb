#!/usr/bin/env bash
# Non-test Rust lines per crate: for every crates/*/src/**/*.rs and src/*.rs,
# the lines before the first `#[cfg(test)]` attribute line (the whole file when
# it has none; a mention inside a comment does not count). Then the same count
# for three files: the engine, the live cluster, and the simulator seam
# (libra-core's platform.rs, which holds only glue).
# Run from anywhere: ./scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # non-test lines of the files on stdin
  xargs -r awk 'FNR == 1 { skip = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
  [ "$dir" = src ] && { name=libra; depth=(-maxdepth 1); } || { name=${dir#crates/}; name=${name%/src}; depth=(); }
  n=$(find "$dir" "${depth[@]}" -name '*.rs' | sort | count)
  printf '%-18s %6d\n' "$name" "$n"
  total=$((total + n))
done
printf '%-18s %6d\n' total "$total"
for f in crates/libra-sim/src/engine.rs crates/libra-live/src/cluster.rs crates/libra-core/src/platform.rs; do
  printf '%-18s %6d\n' "$(basename "$f")" "$(echo "$f" | count)"
done
