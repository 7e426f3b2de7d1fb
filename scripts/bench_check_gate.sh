#!/usr/bin/env bash
# Perf-regression gate: runs the benchmark suite in quick mode and
# compares the fresh numbers against the committed BENCH_*.json
# baselines with tools/bench_check (DESIGN.md §13).
#
# Three experiments are gated:
#   - bench_ablation_overlap  → BENCH_overlap.json  (overlap fractions,
#     profiler overhead; host-invariant, always enforced)
#   - bench_shard_throughput  → BENCH_shard.json    (speedup ratio and
#     error/partial counts enforced; qps/latency informational unless
#     the host fingerprint matches the baseline's)
#   - bench_micro (BM_Hybrid) → BENCH_micro.json    (items/sec of the
#     whole-graph triangle counts on rmat12 / holme_kim12 through the
#     adaptive merge/galloping kernels; informational across hosts)
# Each experiment runs twice and bench_check judges best-of-2, so one
# noisy CI run cannot flake the gate. A final self-test doctors a fresh
# file into a regression and asserts the gate actually fails on it.
#
# Fresh JSON is left in $BENCH_ARTIFACT_DIR (if set) for CI upload.
#
#   scripts/bench_check_gate.sh [BUILD_DIR]    (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
for bin in bench/bench_ablation_overlap bench/bench_shard_throughput \
           bench/bench_micro tools/bench_check; do
  if [[ ! -x "$BUILD_DIR/$bin" ]]; then
    echo "missing $BUILD_DIR/$bin — build the '$(basename "$bin")' target first" >&2
    exit 2
  fi
done

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

fail=0

echo "== fresh runs: bench_ablation_overlap (best-of-2)"
for i in 1 2; do
  "$BUILD_DIR/bench/bench_ablation_overlap" --scale_shift 2 \
    --json_out "$WORK_DIR/overlap_$i.json" > /dev/null
done
echo "== gate: BENCH_overlap.json"
"$BUILD_DIR/tools/bench_check" --baseline BENCH_overlap.json \
  --fresh "$WORK_DIR/overlap_1.json" "$WORK_DIR/overlap_2.json" || fail=1

echo "== fresh runs: bench_shard_throughput (best-of-2)"
for i in 1 2; do
  "$BUILD_DIR/bench/bench_shard_throughput" --scale_shift 2 \
    --json_out "$WORK_DIR/shard_$i.json" > /dev/null
done
echo "== gate: BENCH_shard.json"
"$BUILD_DIR/tools/bench_check" --baseline BENCH_shard.json \
  --fresh "$WORK_DIR/shard_1.json" "$WORK_DIR/shard_2.json" || fail=1

echo "== fresh runs: bench_micro BM_Hybrid (best-of-2)"
for i in 1 2; do
  "$BUILD_DIR/bench/bench_micro" --benchmark_filter='BM_Hybrid' \
    --benchmark_min_time=0.05 --benchmark_format=json \
    --benchmark_out="$WORK_DIR/micro_$i.json" > /dev/null
done
echo "== gate: BENCH_micro.json"
"$BUILD_DIR/tools/bench_check" --baseline BENCH_micro.json \
  --fresh "$WORK_DIR/micro_1.json" "$WORK_DIR/micro_2.json" || fail=1

echo "== self-test: a doctored regression must FAIL the gate"
# Collapse micro_overlap in both fresh copies far past its tolerance;
# bench_check must exit 1 (regression), not 0 and not 2 (usage/parse).
for i in 1 2; do
  sed 's/"micro_overlap":[0-9.]*/"micro_overlap":0.0001/' \
    "$WORK_DIR/overlap_$i.json" > "$WORK_DIR/doctored_$i.json"
done
set +e
"$BUILD_DIR/tools/bench_check" --baseline BENCH_overlap.json \
  --fresh "$WORK_DIR/doctored_1.json" "$WORK_DIR/doctored_2.json" \
  > "$WORK_DIR/doctored.out" 2>&1
doctored_exit=$?
set -e
if [[ "$doctored_exit" -ne 1 ]]; then
  echo "FAIL: doctored regression exited $doctored_exit (want 1)" >&2
  cat "$WORK_DIR/doctored.out" >&2
  fail=1
else
  echo "doctored regression correctly rejected (exit 1)"
fi

if [[ -n "${BENCH_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$BENCH_ARTIFACT_DIR"
  cp "$WORK_DIR"/overlap_*.json "$WORK_DIR"/shard_*.json \
     "$WORK_DIR"/micro_*.json "$BENCH_ARTIFACT_DIR/"
  echo "fresh bench JSON copied to $BENCH_ARTIFACT_DIR"
fi

if [[ "$fail" -ne 0 ]]; then
  echo "bench_check gate: FAIL" >&2
  exit 1
fi
echo "bench_check gate: PASS"
