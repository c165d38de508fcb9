#!/usr/bin/env sh
# Configure, build, and run the test suite under a sanitizer family.
#
#   tools/sanitize.sh [address|thread] [build-dir]
#   tools/sanitize.sh --help
#
# Default family is address (ASan + UBSan); `thread` builds with TSan
# instead, which is what the fleet and dataplane tests want (the two families
# cannot be combined in one build — see NTCO_SANITIZE in CMakeLists.txt).
# Benches and examples are skipped: the sanitizer run exists to shake out
# memory, UB, and data-race errors in the library and its tests, not to
# time anything.
#
# These sanitizer runs are the *dynamic* half of the determinism story:
# they only catch what the chosen inputs execute. The static half is
# `ntco-lint` (tools/ci.sh step 2, ctest LintClean), which checks every
# source file for nondeterminism sources, unordered-container iteration,
# stray threading, and layering back-edges without running anything.
set -eu

if [ "${1:-}" = "--help" ] || [ "${1:-}" = "-h" ]; then
  # Print this header comment block (everything up to the first non-# line).
  awk 'NR > 1 { if ($0 !~ /^#/) exit; sub(/^# ?/, ""); print }' "$0"
  exit 0
fi

FAMILY="${1:-address}"
BUILD_DIR="${2:-build-${FAMILY}san}"
SRC_DIR="$(dirname "$0")/.."

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DNTCO_SANITIZE="$FAMILY" \
  -DNTCO_BUILD_BENCHMARKS=OFF \
  -DNTCO_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)"
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure
