#!/usr/bin/env bash
# The lint canary: clippy must fail on scripts/lint_canary and name every lint
# DESIGN.md §6 denies and every type and method clippy.toml disallows. A lint
# this toolchain's clippy dropped or renamed, a clippy.toml entry that no longer
# resolves, or a clippy.toml that is no longer read turns this step red instead
# of turning the deny set in the product crates silently into a no-op.
# Run from anywhere: ./scripts/lint_canary.sh
set -uo pipefail
cd "$(dirname "$0")/.."

if out=$(cargo clippy --offline --quiet --manifest-path scripts/lint_canary/Cargo.toml \
  --target-dir target/lint_canary 2>&1); then
  echo "lint canary: clippy passed a crate that holds one violation per denied lint"
  exit 1
fi
missing=0
for want in \
  '#unwrap_used' '#expect_used' '#panic' '#todo' '#unimplemented' '#indexing_slicing' \
  '#cast_possible_truncation' '#wildcard_enum_match_arm' '#float_cmp' \
  '#allow_attributes_without_reason' '#disallowed_types' '#disallowed_methods' \
  'type `std::collections::HashMap`' 'type `std::collections::HashSet`' \
  'type `std::time::Instant`' 'type `std::time::SystemTime`' \
  'method `std::time::Instant::now`' 'method `std::time::SystemTime::now`' \
  'this lint expectation is unfulfilled'; do
  grep -qF -- "$want" <<<"$out" || { echo "lint canary: clippy did not report $want"; missing=1; }
done
exit $missing
