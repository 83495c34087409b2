#!/usr/bin/env bash
# Regenerates the golden-physics fixtures in tests/golden/ from the current
# kernels.  Review the diff before committing: a fixture change means the
# physics changed, and that had better be intentional.
#
# Usage: scripts/regen_golden.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
if [ ! -x "${BUILD_DIR}/tests/golden_test" ]; then
  echo "building golden_test in ${BUILD_DIR}..."
  cmake -B "${BUILD_DIR}" -S . > /dev/null
  cmake --build "${BUILD_DIR}" --target golden_test -j > /dev/null
fi

mkdir -p tests/golden
ANTMD_GOLDEN_REGEN=1 "${BUILD_DIR}/tests/golden_test" \
  --gtest_filter='GoldenTest.LjFluid:GoldenTest.SolvatedMiniprotein:GoldenTest.IonicSolution:GoldenTest.GseWater'

echo
echo "fixtures written to tests/golden/:"
ls -l tests/golden/
echo
echo "verifying against the fresh fixtures..."
"${BUILD_DIR}/tests/golden_test"
