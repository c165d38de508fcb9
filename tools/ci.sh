#!/usr/bin/env sh
# The full CI gate, in dependency order:
#
#   1. configure (warnings are errors: NTCO_WERROR=ON) and build just the
#      ntco-lint target — seconds, not minutes
#   2. run ntco-lint, the static determinism & layering gate (rules R1-R5,
#      R7, R8; see DESIGN.md "Static analysis & determinism contract"): any
#      diagnostic or stale suppression fails here, before the expensive
#      builds. A cold full-tree run takes well under a second, so there is
#      no cache, no baseline and no SARIF output any more; the JSON report
#      lands in the build dir
#   3. build everything else (tests, benches, examples)
#   4. run the unit/integration suite (ctest; includes LintClean again so a
#      local `ctest` run gets the same gate, and allocation_count_test, the
#      exact allocation counts that replaced the old hot-path lint rules)
#   5. prove the fleet determinism contract end-to-end:
#      bench_f5_scale_users, bench_f12_broker, bench_f13_fabric_contention,
#      bench_f14_continuum, bench_f15_vehicular, and bench_f16_diurnal must
#      emit byte-identical stdout and NTCO_BENCH_OUT artifacts with
#      NTCO_THREADS=1 and NTCO_THREADS=8
#   6. run bench_micro_sim, bench_micro_fabric, and bench_micro_ring and
#      compare their gated loops against the checked-in
#      BENCH_micro_sim.json / BENCH_micro_fabric.json /
#      BENCH_micro_ring.json baselines: a drop of more than 10% in
#      items_per_second fails the gate (benchmarks are noisy; 10% is
#      beyond run-to-run jitter for these loops). Refresh a baseline by
#      copying the build's JSON to the repo root after a deliberate
#      kernel/fabric/ring change.
#   7. rebuild under ThreadSanitizer and rerun the fleet, broker,
#      fabric-fleet, dataplane, and arrival-fleet suites (everything that
#      exercises the worker pool or the lock-free rings) —
#      ctest -R '^Fleet|^Broker|^FabricFleet|^Dataplane|^ArrivalFleet'
#   8. rebuild under ASan + UBSan and rerun the whole suite (including
#      allocation_count_test: its counting operator new sits on top of the
#      sanitizer allocator, and its counts hold there too)
#
#   tools/ci.sh [build-dir]             (default: build-ci)
#
# Steps 7 and 8 use their own build trees (NTCO_SANITIZE is a build-wide
# flag; ASan and TSan cannot share one). Set NTCO_CI_SKIP_SANITIZERS=1 to
# stop after step 6 on machines where two extra builds are too slow.
set -eu

BUILD_DIR="${1:-build-ci}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== [1/8] configure (NTCO_WERROR=ON) + build ntco-lint =="
cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DNTCO_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target ntco-lint -j "$JOBS"

echo "== [2/8] ntco-lint: static determinism & layering gate =="
"$BUILD_DIR/tools/ntco-lint" \
  --root "$SRC_DIR" \
  --json-out "$BUILD_DIR/ntco-lint-report.json"

echo "== [3/8] build everything =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== [4/8] unit + integration tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== [5/8] fleet determinism: F5 + F12-F16 artifacts at NTCO_THREADS=1 vs 8 =="
for det_bench in bench_f5_scale_users bench_f12_broker bench_f13_fabric_contention bench_f14_continuum bench_f15_vehicular bench_f16_diurnal; do
  DET_DIR="$BUILD_DIR/fleet-determinism/$det_bench"
  rm -rf "$DET_DIR"
  mkdir -p "$DET_DIR/t1" "$DET_DIR/t8"
  NTCO_THREADS=1 NTCO_BENCH_OUT="$DET_DIR/t1" \
    "$BUILD_DIR/bench/$det_bench" > "$DET_DIR/t1/stdout.txt" 2>/dev/null
  NTCO_THREADS=8 NTCO_BENCH_OUT="$DET_DIR/t8" \
    "$BUILD_DIR/bench/$det_bench" > "$DET_DIR/t8/stdout.txt" 2>/dev/null
  if ! diff -r "$DET_DIR/t1" "$DET_DIR/t8"; then
    echo "FAIL: $det_bench output differs between NTCO_THREADS=1 and 8" >&2
    exit 1
  fi
  echo "$det_bench: byte-identical across $(ls "$DET_DIR/t1" | wc -l) artifacts"
done

echo "== [6/8] kernel + fabric micro-benches vs checked-in baselines =="
# gate_micro <bench-binary> <baseline.json> <gated loop>...
gate_micro() {
  mb="$1"; baseline="$2"; shift 2
  MB_DIR="$BUILD_DIR/micro-bench/$mb"
  rm -rf "$MB_DIR"
  mkdir -p "$MB_DIR"
  NTCO_BENCH_OUT="$MB_DIR" "$BUILD_DIR/bench/$mb" \
    --benchmark_min_time=0.5 > "$MB_DIR/stdout.txt" 2>&1
  for loop in "$@"; do
    base="$(awk -F': ' -v n="$loop" \
      '$0 ~ "\"" n "\"" { sub(/,.*/, "", $3); print $3 }' \
      "$SRC_DIR/$baseline")"
    cur="$(awk -F': ' -v n="$loop" \
      '$0 ~ "\"" n "\"" { sub(/,.*/, "", $3); print $3 }' \
      "$MB_DIR/$baseline")"
    if [ -z "$base" ] || [ -z "$cur" ]; then
      echo "FAIL: $loop missing from bench output or baseline" >&2
      exit 1
    fi
    if ! awk -v c="$cur" -v b="$base" 'BEGIN { exit !(c >= 0.9 * b) }'; then
      echo "FAIL: $loop regressed >10%: $cur items/s vs baseline $base" >&2
      exit 1
    fi
    echo "$loop: $cur items/s (baseline $base) — within 10% gate"
  done
}
gate_micro bench_micro_sim BENCH_micro_sim.json \
  "BM_ScheduleFireCancel/1024" "BM_ScheduleFireCancel/8192"
gate_micro bench_micro_fabric BENCH_micro_fabric.json \
  "BM_AdmitExpireChurn/1024" "BM_AdmitExpireChurn/8192"
# Only the single-threaded ring loops are gated: the ping-pong and
# epoch-barrier benches spawn threads, and their numbers are scheduler
# noise on shared or single-core runners.
gate_micro bench_micro_ring BENCH_micro_ring.json \
  "BM_RingSinglePushPop/1024" "BM_RingBatchedPushPop/1024"

if [ "${NTCO_CI_SKIP_SANITIZERS:-0}" = "1" ]; then
  echo "== sanitizer stages skipped (NTCO_CI_SKIP_SANITIZERS=1) =="
  exit 0
fi

echo "== [7/8] ThreadSanitizer: fleet + broker + continuum + dataplane + arrivals suites =="
cmake -B "$BUILD_DIR-tsan" -S "$SRC_DIR" \
  -DNTCO_SANITIZE=thread \
  -DNTCO_BUILD_BENCHMARKS=OFF -DNTCO_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR-tsan" \
  --target fleet_test broker_test fabric_test continuum_test dataplane_test \
  arrivals_test \
  -j "$JOBS"
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$BUILD_DIR-tsan" --output-on-failure \
  -R '^Fleet|^Broker|^FabricFleet|^Dataplane|^ArrivalFleet'

echo "== [8/8] ASan + UBSan: full suite =="
"$SRC_DIR/tools/sanitize.sh" address "$BUILD_DIR-asan"

echo "== CI green =="
