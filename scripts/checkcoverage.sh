#!/usr/bin/env bash
# Coverage gate: run the full test suite once with statement coverage and
# fail if the total drops below the recorded baseline. Coverage is measured
# across package boundaries (-coverpkg=./...): the differential-oracle
# harness (exec/equivtest) and the bench workloads are how the operator
# engines and runtime paths are exercised, and their coverage counts. The
# baseline ratchets up as the suite grows; keep it ~2 points under the
# measured total so incidental variation (timing-dependent paths in the
# concurrent tests) does not flake the gate. Update EXPERIMENTS.md's
# per-package table when you move it.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${COVERAGE_BASELINE:-80.4}"
PROFILE="$(mktemp)"
OUT="$(mktemp)"
trap 'rm -f "$PROFILE" "$OUT"' EXIT

# One suite run produces the merged cross-package profile. On failure,
# replay the captured output so CI logs name the failing test.
if ! go test -count=1 -coverprofile="$PROFILE" -coverpkg=./... ./... >"$OUT" 2>&1; then
  cat "$OUT" >&2
  echo "FAIL: test suite failed during the coverage run" >&2
  exit 1
fi

# Per-package percentages from the merged profile: a block is covered if any
# test binary in the suite executed it (profiles of different test binaries
# repeat blocks, so dedupe by block id and OR the counts).
echo "per-package statement coverage (whole suite):"
awk 'NR > 1 {
  split($1, a, ":"); file = a[1]
  pkg = file; sub(/\/[^\/]*$/, "", pkg)
  key = $1
  if (!(key in stmts)) { stmts[key] = $2; pkgof[key] = pkg }
  if ($3 > 0) hit[key] = 1
} END {
  for (k in stmts) {
    tot[pkgof[k]] += stmts[k]
    if (k in hit) cov[pkgof[k]] += stmts[k]
  }
  for (p in tot) printf "  %-28s %.1f%%\n", p, 100 * cov[p] / tot[p]
}' "$PROFILE" | sort

TOTAL=$(go tool cover -func="$PROFILE" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
echo "total: ${TOTAL}% (baseline ${BASELINE}%)"
awk -v t="$TOTAL" -v b="$BASELINE" 'BEGIN { exit (t + 0 >= b + 0) ? 0 : 1 }' || {
  echo "FAIL: total coverage ${TOTAL}% fell below the ${BASELINE}% baseline" >&2
  exit 1
}
echo "coverage gate OK"
