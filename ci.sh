#!/usr/bin/env bash
# CI entry point: build + test twice — a normal RelWithDebInfo build and
# an ASan/UBSan build (-DLEMUR_SANITIZE="address;undefined") — failing on
# any compiler warning in either — then the standalone rackbench build and
# its self-tests, then the one host-timed gate (telemetry smoke) on the
# normal build. The failover MTTR sweep runs as a ctest in both
# configurations. src/verify additionally builds with -Werror (see
# src/verify/CMakeLists.txt).
#
# Builds go into a throwaway temp directory (removed on exit) so CI never
# pollutes the work tree or reuses a stale cache; set LEMUR_CI_KEEP=1 to
# keep it for debugging.
#
# Usage: ./ci.sh [jobs]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")" && pwd)"
jobs="${1:-$(nproc)}"

ci_root="$(mktemp -d -t lemur-ci.XXXXXX)"
cleanup() {
  if [[ "${LEMUR_CI_KEEP:-0}" == "1" ]]; then
    echo "==== keeping build trees in $ci_root ===="
  else
    rm -rf "$ci_root"
  fi
}
trap cleanup EXIT

# Builds a configured tree; fails on a build error or any compiler warning.
build_checked() {
  local name="$1" build_dir="$2"
  echo "==== [$name] build ===="
  local log
  log="$(mktemp)"
  if ! cmake --build "$build_dir" -j "$jobs" 2>&1 | tee "$log"; then
    rm -f "$log"
    echo "==== [$name] BUILD FAILED ===="
    return 1
  fi
  if grep -E "warning:" "$log" >/dev/null; then
    echo "==== [$name] FAILED: compiler warnings ===="
    grep -E "warning:" "$log"
    rm -f "$log"
    return 1
  fi
  rm -f "$log"
}

run_config() {
  local name="$1" build_dir="$2"
  shift 2
  echo "==== [$name] configure ===="
  cmake -B "$build_dir" -S "$repo_root" "$@"
  build_checked "$name" "$build_dir"
  echo "==== [$name] ctest ===="
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

run_config normal "$ci_root/build"
run_config sanitize "$ci_root/build-sanitize" \
  -DLEMUR_SANITIZE="address;undefined"

# The rack benchmark, configured standalone as the benchmark harness
# builds it: a change to the library surface it links against must still
# build without warnings and pass the benchmark's self-tests.
echo "==== [rackbench] configure ===="
cmake -S "$repo_root/rackbench" -B "$ci_root/rackbench"
build_checked rackbench "$ci_root/rackbench"
echo "==== [rackbench] selftest ===="
"$ci_root/rackbench/rackbench_selftest"

# The one host-timed gate, on the normal build, after both ctest
# configurations so a slow host cannot keep the sanitizer configuration
# from running. Telemetry smoke: fig2 workload with tracing on/off. Fails
# on broken packet conservation, trace-continuity errors, or a median
# tracing overhead >10% over interleaved traced/untraced pairs; leaves
# BENCH_telemetry.json next to the build tree.
echo "==== [normal] telemetry smoke ===="
(cd "$ci_root/build" && ./bench/telemetry_smoke)

echo "==== CI OK: both configurations and the telemetry gate green ===="
