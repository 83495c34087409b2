#!/usr/bin/env bash
# Differential check of the nonbonded kernels on the bench systems:
#
#   1. antmd_run with nonbonded_kernel = pair vs = cluster on identical
#      configs, byte-compared trajectories (the kernels are specified to be
#      bit-identical, so `cmp` — not a tolerance diff — is the bar);
#   2. thread invariance: cluster kernel at --threads 1 vs 2 vs 8;
#   3. the cross-ISA matrix: every compiled-and-runnable SIMD variant
#      (ANTMD_FORCE_ISA = avx2 / avx512) x threads {1, 2, 8} must
#      reproduce the forced-scalar trajectory byte for byte;
#   4. the golden physics fixtures (golden_test) must pass under every
#      forced ISA.
#
# Variants the build or CPU lacks are skipped with a note, never failed:
# the dispatcher itself refuses them, which is the behaviour under test.
#
# Usage: scripts/check_kernel_equivalence.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
RUN="${BUILD_DIR}/examples/antmd_run"
GOLDEN="${BUILD_DIR}/tests/golden_test"
if [ ! -x "$RUN" ]; then
  echo "building antmd_run in ${BUILD_DIR}..."
  cmake -B "${BUILD_DIR}" -S . > /dev/null
  cmake --build "${BUILD_DIR}" --target antmd_run -j > /dev/null
fi

WORK="$(mktemp -d /tmp/antmd_kernel_eq.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

# name | base config body (kernel/xyz keys appended per run)
write_base() {
  case "$1" in
    ljfluid512)
      cat <<'EOF'
system = ljfluid
size = 512
steps = 100
dt_fs = 2.0
temperature = 120
thermostat = langevin
electrostatics = none
cutoff = 8.0
skin = 1.0
seed = 3
EOF
      ;;
    water216)
      cat <<'EOF'
system = water
size = 216
steps = 60
dt_fs = 2.0
temperature = 300
thermostat = nosehoover
electrostatics = gse
cutoff = 6.0
skin = 1.0
seed = 3
EOF
      ;;
    polymer)
      cat <<'EOF'
system = polymer
size = 216
chain_length = 12
steps = 60
dt_fs = 2.0
temperature = 300
thermostat = langevin
electrostatics = cutoff
cutoff = 7.0
skin = 1.0
seed = 3
EOF
      ;;
  esac
}

run_one() {  # system kernel threads isa -> trajectory path
  local sys="$1" kernel="$2" threads="$3" isa="${4:-}"
  local tag="${sys}_${kernel}_t${threads}${isa:+_${isa}}"
  local cfg="${WORK}/${tag}.cfg"
  write_base "$sys" > "$cfg"
  {
    echo "nonbonded_kernel = ${kernel}"
    echo "threads = ${threads}"
    echo "xyz = ${WORK}/${tag}.xyz"
  } >> "$cfg"
  ANTMD_FORCE_ISA="$isa" "$RUN" "$cfg" > "${WORK}/${tag}.log" 2>&1 \
    || { echo "FAIL: antmd_run ${tag} exited non-zero"; \
         tail -5 "${WORK}/${tag}.log"; exit 1; }
  echo "${WORK}/${tag}.xyz"
}

# Which SIMD variants can this build + CPU actually run?  A 1-step probe
# under the forced ISA answers authoritatively: the dispatcher throws a
# ConfigError at startup for anything it cannot honour.
probe_cfg="${WORK}/probe.cfg"
write_base ljfluid512 | sed 's/^steps = 100$/steps = 1/' > "$probe_cfg"
SIMD_ISAS=()
for isa in avx2 avx512; do
  if ANTMD_FORCE_ISA="$isa" "$RUN" "$probe_cfg" \
       > "${WORK}/probe_${isa}.log" 2>&1; then
    SIMD_ISAS+=("$isa")
  elif grep -q "not supported by this build/CPU" "${WORK}/probe_${isa}.log"
  then
    echo "SKIP ${isa}: not supported by this build/CPU"
  else
    echo "FAIL: ${isa} probe run died for a reason other than support:"
    tail -5 "${WORK}/probe_${isa}.log"
    exit 1
  fi
done
echo "cross-ISA matrix: scalar ${SIMD_ISAS[*]-}"

status=0
for sys in ljfluid512 water216 polymer; do
  pair_xyz="$(run_one "$sys" pair 1)"
  cluster_xyz="$(run_one "$sys" cluster 1)"
  if cmp -s "$pair_xyz" "$cluster_xyz"; then
    echo "OK  ${sys}: pair == cluster (byte-identical trajectory)"
  else
    echo "FAIL ${sys}: pair and cluster trajectories differ:"
    cmp "$pair_xyz" "$cluster_xyz" || true
    status=1
  fi

  t1="$(run_one "$sys" cluster 1)"
  for t in 2 8; do
    tn="$(run_one "$sys" cluster "$t")"
    if cmp -s "$t1" "$tn"; then
      echo "OK  ${sys}: cluster --threads 1 == --threads ${t}"
    else
      echo "FAIL ${sys}: cluster kernel not thread-invariant at ${t} threads:"
      cmp "$t1" "$tn" || true
      status=1
    fi
  done

  # Cross-ISA: every SIMD variant, at every thread count, against the
  # forced-scalar single-thread reference.
  scalar_xyz="$(run_one "$sys" cluster 1 scalar)"
  if ! cmp -s "$scalar_xyz" "$cluster_xyz"; then
    echo "FAIL ${sys}: forced-scalar differs from auto-dispatch trajectory:"
    cmp "$scalar_xyz" "$cluster_xyz" || true
    status=1
  fi
  for isa in ${SIMD_ISAS[@]+"${SIMD_ISAS[@]}"}; do
    for t in 1 2 8; do
      v="$(run_one "$sys" cluster "$t" "$isa")"
      if cmp -s "$scalar_xyz" "$v"; then
        echo "OK  ${sys}: ${isa} --threads ${t} == scalar"
      else
        echo "FAIL ${sys}: ${isa} --threads ${t} diverges from scalar:"
        cmp "$scalar_xyz" "$v" || true
        status=1
      fi
    done
  done
done

# Golden physics fixtures under every forced ISA (includes the exact
# pair-vs-cluster raw-quanta layer, so this pins each variant to the
# recorded physics, not just to the scalar kernel).
if [ -x "$GOLDEN" ]; then
  for isa in scalar ${SIMD_ISAS[@]+"${SIMD_ISAS[@]}"}; do
    if ANTMD_FORCE_ISA="$isa" "$GOLDEN" > "${WORK}/golden_${isa}.log" 2>&1
    then
      echo "OK  golden_test under ANTMD_FORCE_ISA=${isa}"
    else
      echo "FAIL golden_test under ANTMD_FORCE_ISA=${isa}:"
      tail -15 "${WORK}/golden_${isa}.log"
      status=1
    fi
  done
else
  echo "SKIP golden_test: ${GOLDEN} not built"
fi

if [ "$status" -eq 0 ]; then
  echo "kernel equivalence: all checks passed"
else
  echo "kernel equivalence: FAILURES above"
fi
exit "$status"
