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
#   3. prove the fleet determinism contract end-to-end and pin every
#      deterministic output: each experiment bench (A1-A4, F1-F16, T1-T6)
#      must emit byte-identical stdout and NTCO_BENCH_OUT artifacts with
#      NTCO_THREADS=1 and NTCO_THREADS=8 (F5,
#      F9 and F12-F16 run on the fleet; F9 is the one experiment that
#      drives the controller's retry, fallback and abort paths), and so
#      must each example's stdout; then the sha256 of each bench's t1
#      output and of each example's stdout must equal the one pinned below,
#      so a change that alters an artifact (an F5 sim.event.* trace, say)
#      alike at both thread counts fails here until the pin is updated on
#      purpose. Wall-clock figures (A1b's planning times, T2's plan time,
#      T5's alpha time, F12/F15/F16's throughput) go to stderr, which is
#      neither diffed nor pinned
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
#   7. rebuild under ASan + UBSan, with libstdc++'s assertions on
#      (-D_GLIBCXX_ASSERTIONS: operator[] bounds, front()/back()/pop_*() on
#      empty containers), and rerun the whole suite (including
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

echo "== [3/7] determinism + output pins: benches and examples at NTCO_THREADS=1 vs 8 =="
# <bench>:<sha256 of its t1 output: the files of its t1 directory, stdout.txt
# and the NTCO_BENCH_OUT artifacts, concatenated in C-locale name order>
for pin in \
    bench_a1_partition_ablation:996072c67b4436f62d3b1101e38e7ce5e69535011f9ee6765d4f3ccfb397a00e \
    bench_a2_warmpool_ablation:f7db163b851dd725b39b9ceabfcdb20099664fc5aec910cddb8b02b5b898f5f2 \
    bench_a3_profile_ablation:fa3d80cccda72d7297cdfda3187b1d1be8dc608101b2a72656ca7902ddf0e719 \
    bench_a4_dvfs_baseline:c3e47a9ce5c22e3d15efdf060c8adfa92b8027ddeed23a95f66273fbfb70f16b \
    bench_f1_bandwidth_sweep:8572a7bc2fee4365989be4b49fdae40db60bcf0cc939b9f2e5dd259aae7f3aa5 \
    bench_f2_ccr_sweep:d5312c1a87c6357ef18e4bc2f3816f27743c8da6d3327a47fcff10cb512b40c0 \
    bench_f3_warmpool:4226fbcc7803515c2299e73677842f234c6ca6c146a909a3f71537b462003ada \
    bench_f4_slack_sweep:a66758e93283059976e1909405897bd86099605f6416caed64fa4f4e5e7a3093 \
    bench_f6_cicd:13ad5c935d65cb51bcd6634cd0e51fbf22cb24963e3cfb020f4d25f425e43a71 \
    bench_f7_offpeak:dbcdd653d52b609c50c174a025990220bd567c9f12408b40282bd1374657f074 \
    bench_f8_spot_tier:999594f5ed834c08c579fdd4ae5c4d7e7fb2046b22441d4227edc6895d91ae56 \
    bench_f10_wifi_wait:656c3c2623b62199fdc63dbb86a095725103c8fb74d5286517cdceb0626c71c9 \
    bench_f11_carbon:bc9087cc14818c31f44f82f3a9ec4655ad8c7d50c6b96472c696842d2c43f4dd \
    bench_t1_workloads:0b38692c37eabdeb7195f803088e2013e7bbb9fa301c28e1a6bdf4db3a4b9b39 \
    bench_t2_partitioners:f6129abf7e754b3094a23636ab5295f46629a664140fc8b16695d0c4411689de \
    bench_t3_memory_alloc:97e3fafa72a88563cfb4fdb25368b0d867eb0bbdd1ae96fa60d8a3acb65382a4 \
    bench_t4_profiler:efcdacc6601416b801770131b24083ccef08748c7418726510ef3d7cabba57fc \
    bench_t5_multiway:4d1950e9b73ad2c12c66b013668a5dc4b89af77dcc08e07bcdf80040b80c586e \
    bench_t6_regions:3312078a7db77bdfc2fe664f2071bd8f376224f9d55268e572ed465038837be8 \
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
EX_DIR="$BUILD_DIR/fleet-determinism/examples"
rm -rf "$EX_DIR"
mkdir -p "$EX_DIR"
# <example>:<sha256 of its stdout>
for pin in \
    quickstart:a2a92361e2d45add432aebf70e30943c34ec505b6cec8d48516dc9f6140a0cb1 \
    photo_backup:9e506b60060173cde953cda7a0df54900cd0762b297c976f10dcde04930ca067 \
    ml_batch:1592326c3e3a99784cb1c62ef948a9111663253ae91e6078bc9a4112f4ca0325 \
    cicd_integration:9b131ea3a2dd2e517278a095d9387e13c98465ed612bea05ff2b121006943e07 \
    commuter_day:fc14b01451829e3e6068c49753bfbc12229c1e40b3565121aea944d4c881829a \
    broker_serving:7c0d25f1385f5e8e59f13e0883d673aafbe8648637fbd1897a3a9fdf01bf2dac; do
  example="${pin%%:*}"
  want="${pin#*:}"
  NTCO_THREADS=1 "$BUILD_DIR/examples/$example" > "$EX_DIR/$example.t1" 2>/dev/null
  NTCO_THREADS=8 "$BUILD_DIR/examples/$example" > "$EX_DIR/$example.t8" 2>/dev/null
  if ! cmp -s "$EX_DIR/$example.t1" "$EX_DIR/$example.t8"; then
    echo "FAIL: $example stdout differs between NTCO_THREADS=1 and 8" >&2
    exit 1
  fi
  got="$(sha256sum < "$EX_DIR/$example.t1" | cut -d' ' -f1)"
  if [ "$got" != "$want" ]; then
    echo "FAIL: $example stdout sha256 $got, pinned $want" >&2
    exit 1
  fi
  echo "$example: stdout byte-identical, sha256 pin holds"
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
  ctest --test-dir "$BUILD_DIR-tsan" --output-on-failure -j "$JOBS" \
  -R '^Fleet|^Broker|^FabricFleet|^Dataplane|^ArrivalFleet'

echo "== [7/7] ASan + UBSan + libstdc++ assertions: full suite =="
"$SRC_DIR/tools/sanitize.sh" address "$BUILD_DIR-asan"

echo "== CI green =="
