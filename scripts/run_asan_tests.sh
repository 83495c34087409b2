#!/usr/bin/env bash
# Build the ASan-instrumented tree and run the tests that exercise memory
# ownership across the checkpoint/restore, fault-injection and Supervisor
# recovery paths (serialized buffers, rollback restores, node-failure
# remaps, audit shadow replays, fleet driver teardown) under
# AddressSanitizer.
#
# Usage: scripts/run_asan_tests.sh [extra ctest -R regex]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$(nproc)"

# Checkpointing touches util (serialize), io (v2 container), md/runtime
# (restore paths) and resilience (supervisor rollback); fault_test drives
# the injected failures end to end.  audit_test's shadow replays restore
# checkpoints into a live engine, and fleet_test's drivers rely on their
# member order to keep the auditor's scrubber pointer and the machine's
# profile pointer valid.
FILTER="${1:-util_test|io_test|md_test|runtime_test|sampling_test|checkpoint_test|fault_test|supervisor_test|audit_test|fleet_test|profile_test|simd_kernel_test}"

ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}" \
  ctest --test-dir build-asan -R "$FILTER" --output-on-failure

# The golden-physics harness walks every tile mask of the cluster-pair
# kernel (gather buffers, padding slots, chunk scratch) — run it under ASan
# so a layout bug shows up as an instrumented fault, not a physics diff.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}" \
  ctest --test-dir build-asan -L golden --output-on-failure
