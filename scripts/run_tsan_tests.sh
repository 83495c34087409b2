#!/usr/bin/env bash
# Build the TSan-instrumented tree and run the tests that exercise the
# parallel execution layer (worker-thread force fan-out, parallel neighbor
# rebuild, concurrent replica chunks) under ThreadSanitizer.
#
# Usage: scripts/run_tsan_tests.sh [extra ctest -R regex]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"

# The parallel layer lives in util (pool/context), md (neighbor list),
# runtime (engine fan-out), sampling (replica chunks) and obs (the sharded
# concurrent metrics registry + trace session).  fault_test covers the
# scoped fault registry polled from worker lanes; fleet_test multiplexes
# many supervised engines over one shared worker pool.  ewald_test runs the
# GSE stage DAG on 2-8 lanes (slab-owned spreading, per-atom interpolation)
# and fft_test the plane/column kernels those stages fan out over.
# mshake_test runs the constraint solver's cluster chunks on 1-8 lanes.
FILTER="${1:-obs_test|profile_test|util_test|graph_determinism_test|md_test|mshake_test|runtime_test|sampling_test|parallel_determinism_test|supervisor_test|fault_test|fleet_test|simd_kernel_test|ewald_test|fft_test}"

TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
  ctest --test-dir build-tsan -R "$FILTER" --output-on-failure

# The golden harness includes the cluster-kernel thread-invariance case
# (1/2/8 worker fan-out over shared tile scratch) — exactly the access
# pattern TSan is for.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
  ctest --test-dir build-tsan -L golden --output-on-failure
