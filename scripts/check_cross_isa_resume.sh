#!/usr/bin/env bash
# Cross-ISA checkpoint resume: a checkpoint written under the forced-scalar
# cluster kernel, resumed under each SIMD variant, must end byte-identical
# to that variant's uninterrupted run.  The variants are specified
# bit-identical to scalar and a checkpoint carries no kernel state, so the
# ISA stays a pure speed choice across a restart — the software model of
# swapping the machine's pipeline revision mid-run.  A process runs one ISA
# (ANTMD_FORCE_ISA), so every leg is its own antmd_run.
#
# System: 216 rigid waters, GSE, Nose-Hoover, cluster kernel, 1 thread.
# 20 steps under scalar, resumed to 40 under each variant, against 40
# uninterrupted steps under that variant; the final checkpoints are
# `cmp`ed.
#
# Exits 77 (ctest's skip code) when no SIMD variant runs on this
# build/CPU.  A variant the build or CPU lacks is skipped with a note: the
# dispatcher refuses it at startup, which is the behaviour under test.
#
# Usage: scripts/check_cross_isa_resume.sh
# Env:
#   ANTMD_RUN_BIN  path to a prebuilt antmd_run; when unset the script
#                  configures/builds the default tree.  The tier-1 ctest
#                  registration sets it to the freshly built CLI.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -z "${ANTMD_RUN_BIN:-}" ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build --target antmd_run -j "$(nproc)" >/dev/null
  ANTMD_RUN_BIN="build/examples/antmd_run"
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/antmd_cross_isa.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

for steps in 20 40; do
  cat > "${WORK}/steps${steps}.cfg" <<EOF
system           = water
size             = 216
seed             = 3
steps            = ${steps}
dt_fs            = 2.0
temperature      = 300
thermostat       = nosehoover
electrostatics   = gse
cutoff           = 6.0
skin             = 1.0
nonbonded_kernel = cluster
threads          = 1
telemetry        = false
EOF
done

# leg ISA STEPS CHECKPOINT INTERVAL [--resume]: one antmd_run, its log
# beside the checkpoint.
leg() {
  local isa="$1" steps="$2" ckpt="$3" interval="$4"
  shift 4
  ANTMD_FORCE_ISA="$isa" "$ANTMD_RUN_BIN" "${WORK}/steps${steps}.cfg" \
    --checkpoint "$ckpt" --checkpoint-interval "$interval" "$@" \
    > "${ckpt}.log" 2>&1
}

half="${WORK}/half_scalar.ckpt"
if ! leg scalar 20 "$half" 20; then
  echo "FAIL: the forced-scalar first half exited non-zero:"
  tail -5 "${half}.log"
  exit 1
fi

status=0
ran=0
for isa in avx2 avx512; do
  full="${WORK}/full_${isa}.ckpt"
  if ! leg "$isa" 40 "$full" 40; then
    if grep -q "not supported by this build/CPU" "${full}.log"; then
      echo "SKIP ${isa}: not supported by this build/CPU"
      continue
    fi
    echo "FAIL: the uninterrupted ${isa} run exited non-zero:"
    tail -5 "${full}.log"
    status=1
    continue
  fi
  ran=$((ran + 1))
  split="${WORK}/split_${isa}.ckpt"
  cp "$half" "$split"
  if ! leg "$isa" 40 "$split" 20 --resume; then
    echo "FAIL: resuming the scalar checkpoint under ${isa} exited non-zero:"
    tail -5 "${split}.log"
    status=1
  elif cmp -s "$full" "$split"; then
    echo "OK  scalar checkpoint resumed under ${isa} == ${isa} run"
  else
    echo "FAIL scalar checkpoint resumed under ${isa} diverges:"
    cmp "$full" "$split" || true
    status=1
  fi
done

if [ "$status" -eq 0 ] && [ "$ran" -eq 0 ]; then
  echo "SKIP: no SIMD variant runs on this build/CPU"
  exit 77
fi
exit "$status"
