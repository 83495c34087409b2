#!/usr/bin/env bash
# Byte-identity oracle for changes that must not move a single bit: builds
# antmd_run at REV from a `git archive` export in a temporary directory,
# runs the same antmd_run matrix on that build and on this tree's build,
# and `cmp`s the final checkpoints.  A checkpoint carries the dynamic state,
# the thermostat and barostat state and the k-space force cache, so
# positions, velocities and reciprocal-space forces are compared bit for
# bit, not to a tolerance.
#
# Matrix, each case at --threads 1 and 4:
#   water512     512 rigid3 waters, GSE
#   rigid4       216 TIP4P-style waters (virtual sites), GSE
#   flex_respa   216 flexible3 waters, respa_inner = 2, kspace_interval = 2
#   bilayer_npt  examples/configs/bilayer_npt.cfg for 60 steps (the
#                semi-isotropic barostat rescales the box and re-grids GSE)
#   water_mc     216 rigid3 waters, barostat = mc
#   machine      examples/configs/water_machine.cfg for 60 steps
#   lj_pair      512-atom LJ fluid, nonbonded_kernel = pair
#   lj_cluster   512-atom LJ fluid, nonbonded_kernel = cluster
#   host_nan     216 rigid3 waters, GSE, 60 steps under the Supervisor with
#                fault = nan_force:25 (one rollback: the host restore path)
#   machine_nan  water_machine.cfg for 60 steps, same supervision and fault
#                (the machine restore path)
#   machine_pair water_machine.cfg for 40 steps, nonbonded_kernel = pair
#   machine_rigid4 water_machine.cfg for 40 steps, water_model = rigid4 (the
#                machine builds its first neighbor list before it constructs
#                virtual sites, the host after)
#   machine_1node water_machine.cfg for 40 steps on nodes = 1 (one node
#                task beside the k-space stages)
#
# Usage: scripts/check_trajectory_identity.sh REV [build-dir]
#   REV        any commit-ish (e.g. HEAD~1, a tag, a hash)
#   build-dir  this tree's build (default: build; antmd_run is built if
#              missing).  REV's build lives under ${TMPDIR:-/tmp} and is
#              removed on exit.
# Exit status: 0 when every checkpoint pair is byte-identical, 1 otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  echo "usage: $0 REV [build-dir]" >&2
  exit 2
fi
REV="$1"
BUILD_DIR="${2:-build}"
git rev-parse --verify --quiet "${REV}^{commit}" > /dev/null \
  || { echo "unknown revision: ${REV}" >&2; exit 2; }

RUN_NEW="${BUILD_DIR}/examples/antmd_run"
if [ ! -x "$RUN_NEW" ]; then
  echo "building antmd_run in ${BUILD_DIR}..."
  cmake -B "${BUILD_DIR}" -S . > /dev/null
  cmake --build "${BUILD_DIR}" --target antmd_run -j > /dev/null
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/antmd_traj_id.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

echo "building antmd_run at ${REV} ($(git rev-parse --short "$REV"))..."
mkdir -p "${WORK}/rev"
git archive "$REV" | tar -x -C "${WORK}/rev"
cmake -S "${WORK}/rev" -B "${WORK}/rev/build" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > "${WORK}/rev_build.log" 2>&1
cmake --build "${WORK}/rev/build" --target antmd_run -j \
  >> "${WORK}/rev_build.log" 2>&1 \
  || { echo "FAIL: building ${REV}"; tail -20 "${WORK}/rev_build.log"; \
       exit 1; }
RUN_OLD="${WORK}/rev/build/examples/antmd_run"

# case -> "steps|config body"; the steps count is also the checkpoint
# interval, so the checkpoint holds the final state.
write_case() {
  case "$1" in
    water512)
      cat <<'EOF'
system = water
size = 512
steps = 40
temperature = 300
thermostat = langevin
electrostatics = gse
cutoff = 7.0
skin = 1.0
seed = 5
EOF
      ;;
    rigid4)
      cat <<'EOF'
system = water
water_model = rigid4
size = 216
steps = 40
temperature = 300
thermostat = langevin
electrostatics = gse
cutoff = 6.0
skin = 1.0
seed = 5
EOF
      ;;
    flex_respa)
      cat <<'EOF'
system = water
water_model = flexible3
size = 216
steps = 40
respa_inner = 2
kspace_interval = 2
temperature = 300
thermostat = langevin
electrostatics = gse
cutoff = 6.0
skin = 1.0
seed = 5
EOF
      ;;
    bilayer_npt)
      sed -E 's/^steps[[:space:]]*=.*/steps = 60/' \
        examples/configs/bilayer_npt.cfg
      ;;
    water_mc)
      cat <<'EOF'
system = water
size = 216
steps = 60
barostat = mc
pressure = 1.0
temperature = 300
thermostat = langevin
electrostatics = gse
cutoff = 6.0
skin = 1.0
seed = 5
EOF
      ;;
    machine)
      sed -E 's/^steps[[:space:]]*=.*/steps = 60/' \
        examples/configs/water_machine.cfg
      ;;
    host_nan)
      cat <<'EOF'
system = water
size = 216
steps = 60
temperature = 300
thermostat = langevin
electrostatics = gse
cutoff = 6.0
skin = 1.0
seed = 5
supervise = true
fault = nan_force:25
EOF
      ;;
    machine_nan)
      sed -E 's/^steps[[:space:]]*=.*/steps = 60/' \
        examples/configs/water_machine.cfg
      printf 'supervise = true\nfault = nan_force:25\n'
      ;;
    machine_pair)
      sed -E 's/^steps[[:space:]]*=.*/steps = 40/' \
        examples/configs/water_machine.cfg
      echo 'nonbonded_kernel = pair'
      ;;
    machine_rigid4)
      sed -E -e 's/^steps[[:space:]]*=.*/steps = 40/' \
        -e 's/^water_model[[:space:]]*=.*/water_model = rigid4/' \
        examples/configs/water_machine.cfg
      ;;
    machine_1node)
      sed -E -e 's/^steps[[:space:]]*=.*/steps = 40/' \
        -e 's/^nodes[[:space:]]*=.*/nodes = 1/' \
        examples/configs/water_machine.cfg
      ;;
    lj_pair|lj_cluster)
      cat <<EOF
system = ljfluid
size = 512
steps = 60
temperature = 120
thermostat = langevin
electrostatics = none
cutoff = 8.0
skin = 1.0
seed = 5
nonbonded_kernel = ${1#lj_}
EOF
      ;;
  esac
}

run_case() {  # binary label case threads -> checkpoint path
  local bin="$1" label="$2" name="$3" threads="$4"
  local tag="${name}_t${threads}_${label}"
  local cfg="${WORK}/${name}.cfg"
  [ -f "$cfg" ] || write_case "$name" > "$cfg"
  local steps
  steps="$(sed -nE 's/^steps[[:space:]]*=[[:space:]]*([0-9]+).*/\1/p' \
    "$cfg")"
  "$bin" "$cfg" --threads "$threads" --no-telemetry \
    --checkpoint "${WORK}/${tag}.ckpt" --checkpoint-interval "$steps" \
    > "${WORK}/${tag}.log" 2>&1 \
    || { echo "FAIL: antmd_run ${tag} exited non-zero"; \
         tail -5 "${WORK}/${tag}.log"; return 1; }
  echo "${WORK}/${tag}.ckpt"
}

status=0
for name in water512 rigid4 flex_respa bilayer_npt water_mc machine \
            lj_pair lj_cluster host_nan machine_nan machine_pair \
            machine_rigid4 machine_1node; do
  for threads in 1 4; do
    old="$(run_case "$RUN_OLD" rev "$name" "$threads")" || { status=1; continue; }
    new="$(run_case "$RUN_NEW" tree "$name" "$threads")" || { status=1; continue; }
    if cmp -s "$old" "$new"; then
      echo "ok   ${name} threads=${threads}"
    else
      echo "DIFF ${name} threads=${threads}: checkpoints differ"
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "PASS: every checkpoint is byte-identical to ${REV}"
else
  echo "FAIL: see above"
fi
exit "$status"
