#!/usr/bin/env sh
# The full CI gate, in dependency order:
#
#   1. configure with warnings as errors (NTCO_WERROR=ON) and build
#      everything: libraries, tests, benches and examples. The build is
#      also the layering check: configure fails on a DEPS entry that names
#      a module added later (so DEPS cannot form a cycle), and each module
#      compiles one generated TU of all its public headers with only its
#      DEPS closure on the include path, so a back-edge include or a
#      warning in any header fails here. An unregistered or wrong-kind
#      telemetry name does not compile either (obs/names.hpp)
#   2. run the unit/integration suite (ctest; includes source_bans_test,
#      the raw-text ban on nondeterminism sources, stray threading and
#      unordered containers; obs_names_test, the telemetry-name registry's
#      dead rows and DESIGN.md tables; the two ctests that must fail to
#      compile a bad telemetry name; and allocation_count_test, the exact
#      allocation counts on the serving path)
#   3. prove the fleet determinism contract end-to-end:
#      bench_f5_scale_users, bench_f9_resilience, bench_f12_broker,
#      bench_f13_fabric_contention, bench_f14_continuum, bench_f15_vehicular,
#      and bench_f16_diurnal must emit byte-identical stdout and
#      NTCO_BENCH_OUT artifacts with NTCO_THREADS=1 and NTCO_THREADS=8 (F9
#      is the one experiment that drives the controller's retry, fallback
#      and abort paths); then the sha256 of each bench's t1 output must
#      equal the one pinned below, so a change that alters an artifact
#      (an F5 sim.event.* trace, say) alike at both thread counts fails
#      here until the pin is updated on purpose
#   4. run the serve-path benchmark's own checks: perfbench/run.py for
#      diurnal_day, replan_burst and vehicular_churn (seed 1, 2 s, no
#      trace). Each run checks its per-shard ledgers, the exact plan-call
#      counts and digest identity at 1 vs N workers, and exits nonzero on a
#      failed check; then its printed simulated digest must equal the one
#      pinned below, so any change to a simulated output fails here until
#      the pin is updated on purpose. Its timings are not gated here; it
#      builds into .bench_build/ at the repository root
#   5. run bench_micro_sim and bench_micro_fabric and compare their gated
#      loops against the checked-in BENCH_micro_sim.json /
#      BENCH_micro_fabric.json baselines: a drop of more than 10% in
#      items_per_second fails the gate (benchmarks are noisy; 10% is
#      beyond run-to-run jitter for these loops). Refresh a baseline by
#      copying the build's JSON to the repo root after a deliberate
#      kernel/fabric change. (The bench_micro_ring gate went with the
#      lock-free rings it timed.)
#   6. rebuild under ThreadSanitizer and rerun the fleet, broker,
#      fabric-fleet, dataplane, and arrival-fleet suites (everything that
#      exercises the worker pool, including its 20,000-shard stress test
#      and the throwing-merge test) —
#      ctest -R '^Fleet|^Broker|^FabricFleet|^Dataplane|^ArrivalFleet'
#   7. rebuild under ASan + UBSan and rerun the whole suite (including
#      allocation_count_test: its counting operator new sits on top of the
#      sanitizer allocator, and its counts hold there too)
#
#   tools/ci.sh [build-dir]             (default: build-ci)
#
# Steps 6 and 7 use their own build trees (NTCO_SANITIZE is a build-wide
# flag; ASan and TSan cannot share one). Set NTCO_CI_SKIP_SANITIZERS=1 to
# stop after step 5 on machines where two extra builds are too slow.
set -eu

BUILD_DIR="${1:-build-ci}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== [1/7] configure (NTCO_WERROR=ON) + build everything =="
cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DNTCO_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== [2/7] unit + integration tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== [3/7] fleet determinism: F5, F9 + F12-F16 artifacts at NTCO_THREADS=1 vs 8 =="
# <bench>:<sha256 of its t1 output: the files of its t1 directory, stdout.txt
# and the NTCO_BENCH_OUT artifacts, concatenated in C-locale name order>
for pin in \
    bench_f5_scale_users:61ec72986d64c1f93a070d0d09f348df26c6648790f1c7e359d66b927d236388 \
    bench_f9_resilience:78c952a2601e64a533e3a627e055b915dd14b7da2fee54140dc7054362068883 \
    bench_f12_broker:43d49680b1949470d992c6d685a5c5eef6302990f54ab519c91f138b2e7cd025 \
    bench_f13_fabric_contention:698551a7eb1cc8c594252569cbcab93e84f8888b804ad92d74ba5f9661ab7765 \
    bench_f14_continuum:69f042c0fa5cf43758cee63215a59d293e27f72a135ebd84cf4a95e1e6462d5b \
    bench_f15_vehicular:a02600ab251a8c5dba7e12f3589f5126c61fc9ca4b121558fe3d8c499bc1a168 \
    bench_f16_diurnal:233f491c6e76c083b839d185fd28c1b9ee491c7dc204d7f426e40e330fdfe80f; do
  det_bench="${pin%%:*}"
  want="${pin#*:}"
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
  got="$(cd "$DET_DIR/t1" && LC_ALL=C ls | xargs cat | sha256sum | cut -d' ' -f1)"
  if [ "$got" != "$want" ]; then
    echo "FAIL: $det_bench t1 output sha256 $got, pinned $want" >&2
    exit 1
  fi
  echo "$det_bench: byte-identical across $(ls "$DET_DIR/t1" | wc -l) artifacts, sha256 pin holds"
done

echo "== [4/7] serve-path benchmark checks: perfbench, three workloads =="
# <workload>:<seed-1 simulated digest>
for pin in diurnal_day:fc247581b2cbaaf6 replan_burst:92cda9805211c78b \
    vehicular_churn:df35f79756cb7170; do
  workload="${pin%%:*}"
  want="${pin#*:}"
  out="$BUILD_DIR/perfbench-$workload.txt"
  python3 "$SRC_DIR/perfbench/run.py" --workload "$workload" --seed 1 \
    --seconds 2 --trace 0 > "$out"
  got="$(sed -n 's/^simulated digest: \([0-9a-f]*\).*/\1/p' "$out")"
  if [ "$got" != "$want" ]; then
    echo "FAIL: $workload simulated digest '$got', pinned $want" >&2
    exit 1
  fi
  echo "$workload: ledgers, plan-call counts and digest $got check out"
done

echo "== [5/7] kernel + fabric micro-benches vs checked-in baselines =="
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
  "BM_ScheduleFireCancel/1024" "BM_ScheduleFireCancel/8192" \
  "BM_CancelReschedule/32768"
gate_micro bench_micro_fabric BENCH_micro_fabric.json \
  "BM_AdmitExpireChurn/1024" "BM_AdmitExpireChurn/8192"

if [ "${NTCO_CI_SKIP_SANITIZERS:-0}" = "1" ]; then
  echo "== sanitizer stages skipped (NTCO_CI_SKIP_SANITIZERS=1) =="
  exit 0
fi

echo "== [6/7] ThreadSanitizer: fleet + broker + continuum + dataplane + arrivals suites =="
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

echo "== [7/7] ASan + UBSan: full suite =="
"$SRC_DIR/tools/sanitize.sh" address "$BUILD_DIR-asan"

echo "== CI green =="
