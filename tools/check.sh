#!/usr/bin/env bash
# tools/check.sh — the repo's correctness-tooling driver.
#
# Configures, builds, and tests the project under each checking mode:
#
#   debug      Debug build (asserts on), full test suite
#   hardened   escalated warning set promoted to errors (build only)
#   asan       AddressSanitizer + UndefinedBehaviorSanitizer, full test suite
#   tsan       ThreadSanitizer, full test suite
#   integer    integer-overflow / lossy-conversion sanitizer, full test suite
#   lint       dosmeter_lint (repo-invariant linter) over src/tools/bench/examples
#   analyze    dosmeter_analyze (semantic determinism & concurrency analyzer)
#              over src/tools/bench/examples
#   tidy       clang-tidy over src/ and tools/ (skipped if not installed)
#   metrics    observability invariants: detect dumps byte-identical with and
#              without --metrics-out, and instrumentation overhead <= 3%
#
# Usage:
#   tools/check.sh            # debug + hardened + asan + tsan + integer +
#                             # lint + analyze + metrics (+ tidy)
#   tools/check.sh asan lint  # just the named modes
#
# Build trees land in build-check-<mode>/ so they never disturb ./build.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
MODES=("$@")
if [ ${#MODES[@]} -eq 0 ]; then
  MODES=(debug hardened asan tsan integer lint analyze metrics)
  if command -v clang-tidy >/dev/null 2>&1; then
    MODES+=(tidy)
  fi
fi

# Make every sanitizer finding fatal and actionable.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

configure_and_build() {
  local dir="$1"; shift
  local targets=()
  while [ "${1:-}" = "--target" ]; do
    targets+=(--target "$2")
    shift 2
  done
  cmake -B "$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j "$JOBS" "${targets[@]}"
}

run_tests() {
  ctest --test-dir "$1" --output-on-failure -j "$JOBS"
}

for mode in "${MODES[@]}"; do
  echo
  echo "==================================================================="
  echo "== check.sh mode: $mode"
  echo "==================================================================="
  case "$mode" in
    debug)
      configure_and_build "$ROOT/build-check-debug" -DCMAKE_BUILD_TYPE=Debug
      run_tests "$ROOT/build-check-debug"
      ;;
    hardened)
      configure_and_build "$ROOT/build-check-hardened" -DDOSMETER_HARDENED=ON
      ;;
    asan)
      configure_and_build "$ROOT/build-check-asan" -DDOSMETER_SANITIZE=address
      run_tests "$ROOT/build-check-asan"
      ;;
    tsan)
      configure_and_build "$ROOT/build-check-tsan" -DDOSMETER_SANITIZE=thread
      run_tests "$ROOT/build-check-tsan"
      ;;
    integer)
      configure_and_build "$ROOT/build-check-integer" -DDOSMETER_SANITIZE=integer
      run_tests "$ROOT/build-check-integer"
      ;;
    lint)
      configure_and_build "$ROOT/build-check-lint" --target dosmeter_lint
      "$ROOT/build-check-lint/tools/dosmeter_lint" --root "$ROOT" \
        src tools bench examples
      ;;
    analyze)
      configure_and_build "$ROOT/build-check-lint" --target dosmeter_analyze
      "$ROOT/build-check-lint/tools/dosmeter_analyze" --root "$ROOT" \
        src tools bench examples
      ;;
    metrics)
      configure_and_build "$ROOT/build-check-metrics" \
        --target dosmeter --target bench_micro_pipeline
      workdir="$ROOT/build-check-metrics/metrics-determinism"
      mkdir -p "$workdir"
      # The no-perturbation invariant: the analysis output must be
      # byte-identical whether or not metrics are exported.
      "$ROOT/build-check-metrics/tools/dosmeter" detect --quiet \
        --save-events "$workdir/plain.bin"
      "$ROOT/build-check-metrics/tools/dosmeter" detect --quiet \
        --save-events "$workdir/instrumented.bin" \
        --metrics-out "$workdir/metrics.json"
      cmp "$workdir/plain.bin" "$workdir/instrumented.bin"
      test -s "$workdir/metrics.json"
      echo "metrics determinism: event dumps byte-identical with/without --metrics-out"
      # The cost side of the contract: instrumentation overhead <= 3% on the
      # packet-dense Moore pipeline (the gate exits non-zero on breach).
      "$ROOT/build-check-metrics/bench/bench_micro_pipeline" --smoke \
        --out "$workdir/BENCH_micro_pipeline.json"
      ;;
    tidy)
      if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not installed; cannot run tidy mode" >&2
        exit 1
      fi
      configure_and_build "$ROOT/build-check-lint" --target tidy
      ;;
    *)
      echo "unknown mode: $mode (expected debug|hardened|asan|tsan|integer|lint|analyze|tidy|metrics)" >&2
      exit 2
      ;;
  esac
done

echo
echo "check.sh: all requested modes passed (${MODES[*]})"
