#!/usr/bin/env bash
# End-to-end payoff of the cluster kernel's SIMD variants: stepping wall
# time of 40 steps of 360 rigid waters (cluster kernel, reaction-field
# cutoff 6 Å, Langevin at 300 K, 2 fs, 1 thread) under each ISA this build
# and CPU can run.  A process runs one ISA, so each row is its own
# antmd_run under ANTMD_FORCE_ISA; the time is antmd_run's "run summary"
# wall (construction excluded), best of 3 runs.  Every variant produces
# the same trajectory bit for bit (scripts/check_kernel_equivalence.sh),
# so this measures dispatch payoff only.
#
# Usage: scripts/bench_isa_sweep.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
RUN="${BUILD_DIR}/examples/antmd_run"
if [ ! -x "$RUN" ]; then
  echo "building antmd_run in ${BUILD_DIR}..."
  cmake -B "${BUILD_DIR}" -S . > /dev/null
  cmake --build "${BUILD_DIR}" --target antmd_run -j > /dev/null
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/antmd_isa_sweep.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

cat > "${WORK}/water360.cfg" <<'EOF'
system           = water
size             = 360
seed             = 1
steps            = 40
dt_fs            = 2.0
temperature      = 300
thermostat       = langevin
electrostatics   = cutoff
cutoff           = 6.0
skin             = 1.0
nonbonded_kernel = cluster
threads          = 1
EOF

# Best stepping wall time (s) of 3 runs under ISA; empty when the build or
# CPU lacks the ISA.
best_wall() {
  local isa="$1" best="" wall
  for _ in 1 2 3; do
    if ! ANTMD_FORCE_ISA="$isa" "$RUN" "${WORK}/water360.cfg" \
         > "${WORK}/${isa}.log" 2>&1; then
      if grep -q "not supported by this build/CPU" "${WORK}/${isa}.log"; then
        return 0
      fi
      echo "antmd_run under ${isa} failed:" >&2
      tail -5 "${WORK}/${isa}.log" >&2
      exit 1
    fi
    wall="$(sed -n 's/^run summary: [0-9]* steps in \([0-9.]*\) s wall.*/\1/p' \
              "${WORK}/${isa}.log")"
    if [ -z "$best" ] || awk -v a="$wall" -v b="$best" 'BEGIN{exit !(a<b)}'
    then
      best="$wall"
    fi
  done
  echo "$best"
}

printf '%-8s %10s %18s\n' isa "wall (s)" "speedup vs scalar"
scalar="$(best_wall scalar)"
for isa in scalar avx2 avx512; do
  if [ "$isa" = scalar ]; then wall="$scalar"; else wall="$(best_wall "$isa")"; fi
  if [ -z "$wall" ]; then
    printf '%-8s %10s %18s\n' "$isa" "-" "(not supported)"
    continue
  fi
  printf '%-8s %10.3f %18.2f\n' "$isa" "$wall" \
    "$(awk -v s="$scalar" -v w="$wall" 'BEGIN{print s / w}')"
done
