// Tier-2 soak: seeded random fault schedules driven through the
// supervisor.  Each schedule derives a fault kind, fire point and payload
// from a splitmix64 stream, runs a supervised machine simulation, and
// checks the two invariants that define PR 4:
//
//   1. when recovery succeeds, the trajectory is bit-identical to the
//      fault-free reference (faults cost modeled time, never physics)
//   2. when it cannot succeed, the supervisor escalates with a coherent
//      RecoveryReport instead of crashing or hanging
//
// The schedule count defaults to a CI-friendly handful; scripts/run_soak.sh
// raises it via ANTMD_SOAK_SCHEDULES for longer chaos runs.  Registered
// under the ctest label "soak" (tier 2).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "ff/forcefield.hpp"
#include "machine/config.hpp"
#include "resilience/supervisor.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/fault.hpp"

namespace antmd {
namespace {

constexpr size_t kSteps = 25;

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

size_t schedule_count() {
  if (const char* env = std::getenv("ANTMD_SOAK_SCHEDULES")) {
    long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 6;
}

runtime::MachineSimConfig machine_config() {
  runtime::MachineSimConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 120.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 120.0;
  return cfg;
}

TEST(Soak, RandomFaultSchedulesRecoverBitExactOrEscalateCleanly) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  auto cfg = machine_config();

  ForceField field_ref(spec.topology, model);
  runtime::MachineSimulation reference(field_ref,
                                       machine::anton_with_torus(2, 2, 2),
                                       spec.positions, spec.box, cfg);
  reference.run(kSteps);

  // Recoverable kinds only: a one-shot fault of any of these must leave
  // the trajectory untouched.  (kIoWriteFail/kIoShortWrite target the
  // checkpoint layer and are soaked separately below.)
  const fault::FaultKind kinds[] = {
      fault::FaultKind::kNanForce,
      fault::FaultKind::kLinkDrop,
      fault::FaultKind::kPacketCorrupt,
      fault::FaultKind::kNodeHang,
  };

  const size_t schedules = schedule_count();
  for (size_t s = 0; s < schedules; ++s) {
    uint64_t stream = 0x50ACED00 + s;
    const fault::FaultKind kind = kinds[splitmix64(stream) % 4];
    // Fire points stay inside the run for every kind's event cadence:
    // kNanForce/kNodeHang poll once per step, link faults many times.
    const uint64_t fire_after = splitmix64(stream) % (kSteps - 5);
    const uint64_t payload = splitmix64(stream);
    SCOPED_TRACE("schedule " + std::to_string(s) + ": kind=" +
                 std::to_string(static_cast<int>(kind)) + " fire_after=" +
                 std::to_string(fire_after));

    ForceField field(spec.topology, model);
    runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                   spec.positions, spec.box, cfg);
    fault::FaultPlan plan;
    plan.kind = kind;
    plan.fire_after = fire_after;
    plan.count = 1;
    plan.payload = payload;
    fault::ScopedFault f(plan);

    resilience::SupervisorConfig sc;
    sc.max_retries = 3;
    sc.snapshot_interval = 8;
    sc.watchdog_ms = 1.0;
    resilience::Supervisor supervisor(sim, sc);
    resilience::RecoveryReport report = supervisor.run(kSteps);

    ASSERT_TRUE(report.completed) << report.final_error;
    ASSERT_EQ(sim.state().step, kSteps);
    const State& sa = reference.state();
    const State& sb = sim.state();
    for (size_t i = 0; i < sa.positions.size(); ++i) {
      ASSERT_EQ(sa.positions[i], sb.positions[i])
          << "schedule " << s << " atom " << i;
      ASSERT_EQ(sa.velocities[i], sb.velocities[i])
          << "schedule " << s << " atom " << i;
    }
  }
}

TEST(Soak, UnrecoverableSchedulesEscalateWithReport) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;

  const size_t schedules = std::max<size_t>(2, schedule_count() / 3);
  for (size_t s = 0; s < schedules; ++s) {
    uint64_t stream = 0xDEAD0000 + s;
    SCOPED_TRACE("schedule " + std::to_string(s));
    ForceField field(spec.topology, model);
    runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                   spec.positions, spec.box,
                                   machine_config());
    // Fires on every force evaluation once eligible: no retry budget can
    // cover it, so the only acceptable outcome is a clean escalation.
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kNanForce;
    plan.fire_after = splitmix64(stream) % 10;
    plan.count = -1;
    plan.payload = splitmix64(stream);
    fault::ScopedFault f(plan);

    resilience::SupervisorConfig sc;
    sc.max_retries = 1 + static_cast<int>(splitmix64(stream) % 3);
    sc.snapshot_interval = 8;
    resilience::Supervisor supervisor(sim, sc);
    resilience::RecoveryReport report = supervisor.run(kSteps);

    EXPECT_FALSE(report.completed);
    EXPECT_FALSE(report.final_error.empty());
    EXPECT_EQ(report.retries, static_cast<uint64_t>(sc.max_retries));
    ASSERT_FALSE(report.events.empty());
    EXPECT_EQ(report.events.back().action,
              resilience::RecoveryAction::kEscalate);
  }
}

}  // namespace
}  // namespace antmd
