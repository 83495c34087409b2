#!/usr/bin/env bash
# antmd_run's exit codes and its `health` mapping, end to end on a 216-atom
# LJ fluid (40 steps, a few hundredths of a second per run):
#
#   exit 2    every configuration/usage mistake: unknown health, barostat or
#             water_model; audit_interval without supervise; --resume
#             without --checkpoint; a duplicated config key;
#             --checkpoint-interval 0
#   exit 4    health = throw and an injected NaN force, with and without
#             --supervise
#   exit 5    health = rollback and a NaN force on every evaluation: the
#             Supervisor's retry budget runs out and the recovery report is
#             written
#   exit 0    one NaN force recovered:
#               health = off + --checkpoint       final checkpoint
#               supervise = true + --checkpoint   byte-identical to the
#                                                 fault-free run's
#               health = rollback                 final dt below 2.0 fs
#
# Usage: scripts/check_antmd_run_cli.sh
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

WORK="$(mktemp -d "${TMPDIR:-/tmp}/antmd_run_cli.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/base.cfg" <<EOF
system         = ljfluid
size           = 216
seed           = 1
steps          = 40
dt_fs          = 2.0
temperature    = 120
thermostat     = langevin
electrostatics = none
cutoff         = 7.0
skin           = 1.0
threads        = 1
telemetry      = false
report_out     = $WORK/report.txt
EOF

fail=0

# run NAME EXPECTED_EXIT [config lines] -- [antmd_run flags]
# A config line replaces the base line with the same key; a line prefixed
# `dup:` is appended as is.
run() {
  local name="$1" want="$2"
  shift 2
  local cfg="$WORK/$name.cfg"
  cp "$WORK/base.cfg" "$cfg"
  while [[ $# -gt 0 && "$1" != "--" ]]; do
    local line="$1"
    if [[ "$line" == dup:* ]]; then
      line="${line#dup:}"
    else
      local key="${line%%=*}"
      sed -i "/^${key// /}[[:space:]]*=/d" "$cfg"
    fi
    echo "$line" >> "$cfg"
    shift
  done
  [[ $# -gt 0 ]] && shift
  local rc=0
  "$ANTMD_RUN_BIN" "$cfg" "$@" > "$WORK/$name.out" 2>&1 || rc=$?
  if (( rc != want )); then
    echo "FAIL $name: exit $rc, expected $want" >&2
    sed 's/^/    /' "$WORK/$name.out" | tail -n 5 >&2
    fail=1
    return 1
  fi
  echo "ok   $name (exit $rc)"
}

# same_checkpoint NAME: NAME's final checkpoint equals the fault-free one.
same_checkpoint() {
  if cmp -s "$WORK/ref.ckpt" "$WORK/$1.ckpt"; then
    echo "ok   $1 checkpoint matches the fault-free run"
  else
    echo "FAIL $1: final checkpoint differs from the fault-free run" >&2
    fail=1
  fi
}

# --- configuration and usage mistakes: exit 2 -------------------------------
run bad_health 2 "health = bogus" || true
run bad_barostat 2 "barostat = bogus" || true
run bad_water_model 2 "system = water" "water_model = bogus" || true
run audit_unsupervised 2 "audit_interval = 4" || true
run resume_no_checkpoint 2 -- --resume || true
run duplicate_key 2 "dup:steps = 40" || true
run checkpoint_interval_0 2 -- --checkpoint "$WORK/ci0.ckpt" \
  --checkpoint-interval 0 || true

# --- numerical failures under each health policy ----------------------------
run ref 0 -- --checkpoint "$WORK/ref.ckpt" --checkpoint-interval 10 || true
run throw 4 "health = throw" "fault = nan_force:15" || true
run throw_supervised 4 "health = throw" "fault = nan_force:15" \
  -- --supervise || true

if run off_checkpoint 0 "health = off" "fault = nan_force:15" \
     -- --checkpoint "$WORK/off_checkpoint.ckpt" --checkpoint-interval 10; then
  same_checkpoint off_checkpoint
fi
if run supervised 0 "supervise = true" "fault = nan_force:15" \
     -- --checkpoint "$WORK/supervised.ckpt" --checkpoint-interval 10; then
  same_checkpoint supervised
fi

if run rollback 0 "health = rollback" "fault = nan_force:15" -- \
     --checkpoint-interval 10; then
  dt=$(sed -n 's/.*final dt:\{0,1\} \([0-9.]*\) fs.*/\1/p' \
         "$WORK/rollback.out" | tail -n 1)
  if [[ -n "$dt" ]] && awk -v d="$dt" 'BEGIN {exit !(d < 2.0)}'; then
    echo "ok   rollback final dt $dt fs"
  else
    echo "FAIL rollback: final dt '${dt:-missing}', expected < 2.0 fs" >&2
    fail=1
  fi
fi

rm -f "$WORK/report.txt"
if run rollback_exhausted 5 "health = rollback" "fault = nan_force:5:-1"; then
  if grep -q "run abandoned" "$WORK/report.txt" 2>/dev/null; then
    echo "ok   rollback_exhausted wrote the recovery report"
  else
    echo "FAIL rollback_exhausted: no recovery report" >&2
    fail=1
  fi
fi

if (( fail )); then
  echo "check_antmd_run_cli: FAIL" >&2
  exit 1
fi
echo "check_antmd_run_cli: PASS"
