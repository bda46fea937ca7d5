#!/usr/bin/env bash
# Bench JSON: builds mvserve and emits one summary into the output directory
# (default: repo root; pass a directory as $1 to write elsewhere),
# key-validated and backed by a full correctness check, so CI can use this as
# a smoke gate. The performance trajectory itself is the ledger
# (go run ./benchmark, see benchmark/README.md).
#
#   BENCH_9.json  — the feedback-driven costing experiment (skewed drifting
#     workload, three runs: static plan, adaptive with static estimates,
#     adaptive with observed cardinalities correcting every re-selection
#     round): q-error quartet per run, improvement factor, adaptive-vs-static
#     throughput, swap count, soundness flag. mvserve exits non-zero if any
#     run fails verification or consistency, if no swap installs, or if the
#     corrected run records no estimates.
set -euo pipefail
cd "$(dirname "$0")/.."

OUTDIR="${1:-.}"
mkdir -p "$OUTDIR"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK" ./cmd/mvserve

OUT9="$OUTDIR/BENCH_9.json"
"$WORK/mvserve" -feedback -sf 0.002 -pct 8 -hot-frac 0.02 \
  -readers 4 -cycles 5 -seed 11 -check -json "$OUT9"

# The emitted object must carry the keys its readers consume.
require_keys() {
  local file="$1"; shift
  for key in "$@"; do
    grep -q "\"$key\"" "$file" || {
      echo "FAIL: $file missing key $key" >&2
      exit 1
    }
  done
}

require_keys "$OUT9" q_median_static_estimates q_median_feedback \
  q_p90_static_estimates q_p90_feedback q_error_improvement \
  adaptive_vs_static_qps swaps_installed verified_and_consistent

echo "bench json OK: $OUT9"
