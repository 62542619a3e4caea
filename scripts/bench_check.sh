#!/usr/bin/env bash
# Consolidated benchmark regression gate: every `--check`-gated bench in
# one invocation, with the reduced cycle counts CI uses on shared runners.
#
#   scripts/bench_check.sh            # run all gates
#   MASK_BENCH_FULL=1 scripts/bench_check.sh   # full-size measurements
#
# Gates, in order:
#   1. throughput        — cycles/sec vs BENCH_pr7/pr5
#   2. throughput (obs)  — tracing-disabled hook overhead vs BENCH_pr7
#   3. prefix_reuse      — warm-up reuse speedup vs BENCH_pr8, reuse-mode
#                          checksum equality
#
# Every gate exits non-zero on regression; the script stops at the first
# failure (set -e) so CI logs point straight at the broken gate.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${MASK_BENCH_FULL:-0}" != "1" ]]; then
  # Shared runners are slow and noisy: reduced measurements, gated on
  # large relative drops only. The committed BENCH_*.json references are
  # scale-invariant (speedups) or re-derived at this size by the benches.
  export MASK_BENCH_CYCLES="${MASK_BENCH_CYCLES:-50000}"
  export MASK_BENCH_PREFIX_CYCLES="${MASK_BENCH_PREFIX_CYCLES:-60000}"
  export MASK_BENCH_REPS="${MASK_BENCH_REPS:-2}"
fi

echo "== gate 1/3: throughput (regression) =="
cargo bench -p mask-bench --bench throughput -- --check

echo "== gate 2/3: throughput with obs hooks compiled (tracing-off overhead) =="
cargo bench -p mask-bench --features obs --bench throughput -- --check

echo "== gate 3/3: prefix reuse (speedup + reuse-mode checksums) =="
cargo bench -p mask-bench --bench prefix_reuse -- --check

echo "bench_check: all gates passed"
