// Silent-data-corruption defense tests: CRC-64 digests, the static-data
// scrubber, shadow re-execution, bit-flip injection and the supervisor's
// corruption budget.  The acceptance bar throughout is the determinism
// contract: every detected flip must be recovered such that the finished
// trajectory is bit-identical to the fault-free run.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ff/forcefield.hpp"
#include "machine/config.hpp"
#include "md/simulation.hpp"
#include "resilience/audit.hpp"
#include "resilience/supervisor.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/serialize.hpp"

namespace antmd {
namespace {

ff::NonbondedModel lj_model(double cutoff = 7.0) {
  ff::NonbondedModel m;
  m.cutoff = cutoff;
  m.electrostatics = ff::Electrostatics::kNone;
  return m;
}

md::SimulationConfig host_config(double temperature = 120.0) {
  md::SimulationConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = temperature;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = temperature;
  cfg.thermostat.gamma_per_ps = 5.0;
  return cfg;
}

runtime::MachineSimConfig machine_config(double temperature = 120.0) {
  runtime::MachineSimConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = temperature;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = temperature;
  return cfg;
}

template <typename SimA, typename SimB>
void expect_bit_identical(const SimA& a, const SimB& b) {
  const State& sa = a.state();
  const State& sb = b.state();
  ASSERT_EQ(sa.step, sb.step);
  ASSERT_EQ(sa.positions.size(), sb.positions.size());
  for (size_t i = 0; i < sa.positions.size(); ++i) {
    ASSERT_EQ(sa.positions[i], sb.positions[i]) << "atom " << i;
    ASSERT_EQ(sa.velocities[i], sb.velocities[i]) << "atom " << i;
  }
  EXPECT_EQ(a.potential_energy(), b.potential_energy());
}

TEST(Crc64, KnownAnswerAndIncrementalEquivalence) {
  // CRC-64/XZ check value for the standard "123456789" test vector.
  const char msg[] = "123456789";
  EXPECT_EQ(util::crc64(msg, 9), 0x995DC9BBDF1939FAull);

  // Incremental updates over arbitrary split points equal the one-shot CRC.
  const std::string data(257, 'q');
  const uint64_t whole = util::crc64(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{100}, data.size()}) {
    uint64_t c = util::crc64_init();
    c = util::crc64_update(c, data.data(), split);
    c = util::crc64_update(c, data.data() + split, data.size() - split);
    EXPECT_EQ(util::crc64_final(c), whole) << "split " << split;
  }

  // A single flipped bit anywhere changes the digest.
  std::string bad = data;
  bad[200] ^= 0x10;
  EXPECT_NE(util::crc64(bad.data(), bad.size()), whole);
}

TEST(AuditConfig, ValidateRejectsOutOfRangeFields) {
  resilience::AuditConfig cfg;
  ASSERT_NO_THROW(cfg.validate());
  cfg.interval = -1;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = {};
  cfg.shadow_window = -2;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = {};
  cfg.scrub_interval = -1;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = {};
  cfg.max_recoveries = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(Scrubber, DetectsAndRepairsFlippedBit) {
  std::vector<double> table(64, 1.25);
  const std::vector<double> pristine = table;
  resilience::Scrubber scrubber;
  scrubber.add_region("spline_table", table.data(),
                      table.size() * sizeof(double));
  EXPECT_EQ(scrubber.region_count(), 1u);
  EXPECT_EQ(scrubber.total_bytes(), table.size() * sizeof(double));

  // Clean scrub: nothing to repair.
  auto clean = scrubber.scrub();
  EXPECT_EQ(clean.repairs, 0u);
  EXPECT_EQ(clean.regions_checked, 1u);

  // One flipped bit is detected, named, and repaired from the mirror.
  EXPECT_EQ(scrubber.flip_bit(777), "spline_table");
  EXPECT_NE(std::memcmp(table.data(), pristine.data(),
                        table.size() * sizeof(double)), 0);
  auto hit = scrubber.scrub();
  EXPECT_EQ(hit.repairs, 1u);
  EXPECT_NE(hit.detail.find("spline_table"), std::string::npos);
  EXPECT_EQ(std::memcmp(table.data(), pristine.data(),
                        table.size() * sizeof(double)), 0);

  // Repair restored the golden bytes: the next scrub is clean again.
  EXPECT_EQ(scrubber.scrub().repairs, 0u);
}

TEST(Scrubber, FlipBitAddressesRegionsGloballyAndWraps) {
  std::vector<unsigned char> a(8, 0), b(8, 0);
  resilience::Scrubber scrubber;
  scrubber.add_region("a", a.data(), a.size());
  scrubber.add_region("b", b.data(), b.size());

  // Bit 64 is the first bit past region a: it lands in region b.
  EXPECT_EQ(scrubber.flip_bit(64), "b");
  EXPECT_EQ(b[0], 1);
  // Indices wrap modulo the total bit count (128): 128 -> bit 0 of a.
  EXPECT_EQ(scrubber.flip_bit(128), "a");
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(scrubber.scrub().repairs, 2u);

  resilience::Scrubber empty;
  EXPECT_EQ(empty.flip_bit(0), "");
}

TEST(ScrubObjects, ForceFieldAndTopologyExposeRegions) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  resilience::Scrubber scrubber;
  scrubber.add_object(field);
  scrubber.add_object(spec.topology);
  EXPECT_GE(scrubber.region_count(), 2u);
  EXPECT_GT(scrubber.total_bytes(), 0u);
  EXPECT_EQ(scrubber.scrub().repairs, 0u);
}

TEST(StateDigest, FlippedVelocityBitNamesTheBlock) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, host_config());
  sim.run(5);

  const resilience::StateDigest before = resilience::digest_state(sim);
  EXPECT_EQ(before.diff(before), "none");

  auto* bytes =
      reinterpret_cast<unsigned char*>(sim.mutable_state().velocities.data());
  bytes[7 * sizeof(Vec3) + 2] ^= 0x20;  // low mantissa bit of atom 7's v.x
  const resilience::StateDigest after = resilience::digest_state(sim);
  EXPECT_NE(after, before);
  EXPECT_NE(after.velocities, before.velocities);
  EXPECT_EQ(after.positions, before.positions);
  EXPECT_EQ(after.forces, before.forces);
  // diff() names velocities and the driver blob (which serializes them too).
  std::string diff = after.diff(before);
  EXPECT_NE(diff.find("velocities"), std::string::npos);
  EXPECT_EQ(diff.find("positions"), std::string::npos);
}

TEST(AuditGate, IntervalZeroIsNoAuditor) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, host_config());

  // interval = 0 means "no auditor", not "auditor that never fires".
  resilience::AuditConfig off;
  off.interval = 0;
  EXPECT_THROW(resilience::Auditor a(sim, off), ConfigError);
}

TEST(FaultInjection, InjectionPauseSuppressesWithoutCountingEvents) {
  fault::disarm_all();
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kBitFlipState;
  plan.fire_after = 1;
  plan.count = -1;
  fault::ScopedFault f(plan);

  EXPECT_FALSE(fault::should_fire(fault::FaultKind::kBitFlipState));
  const uint64_t events = fault::event_count(fault::FaultKind::kBitFlipState);
  {
    // Paused polls are invisible: no fire, and no event consumed — this is
    // what keeps the chaos schedule fixed across shadow replays.
    fault::InjectionPause pause;
    for (int i = 0; i < 5; ++i) {
      EXPECT_FALSE(fault::should_fire(fault::FaultKind::kBitFlipState));
    }
    EXPECT_EQ(fault::event_count(fault::FaultKind::kBitFlipState), events);
  }
  EXPECT_TRUE(fault::should_fire(fault::FaultKind::kBitFlipState));
  EXPECT_EQ(fault::event_count(fault::FaultKind::kBitFlipState), events + 1);
}

TEST(FaultInjection, ParsesBitFlipKinds) {
  EXPECT_EQ(fault::parse_fault_plan("bit_flip_state:3:1:42").kind,
            fault::FaultKind::kBitFlipState);
  EXPECT_EQ(fault::parse_fault_plan("bit_flip_table").kind,
            fault::FaultKind::kBitFlipTable);
  EXPECT_EQ(fault::parse_fault_plan("bit_flip_checkpoint_buffer").kind,
            fault::FaultKind::kBitFlipCheckpointBuffer);
}

// A state flip lands mid-interval; the full-interval shadow replay catches
// it at the next audit point, the supervisor rolls back to the verified
// ring, and honest re-execution finishes bit-identical to the fault-free
// run.  This is the tentpole acceptance criterion on the host engine.
TEST(Auditor, StateFlipDetectedAndRecoveredBitIdenticalHost) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  auto cfg = host_config();
  constexpr size_t kSteps = 24;

  ForceField field_ref(spec.topology, lj_model());
  md::Simulation reference(field_ref, spec.positions, spec.box, cfg);
  reference.run(kSteps);

  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, cfg);

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kBitFlipState;
  plan.fire_after = 9;  // polled once per step: lands after step 10
  plan.count = 1;
  plan.payload = 5417;
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.audit.interval = 4;
  sc.audit.shadow_window = 0;  // full-interval replay: full coverage
  resilience::Supervisor supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(kSteps);

  EXPECT_EQ(fault::fired_count(fault::FaultKind::kBitFlipState), 1u);
  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(report.corruptions, 1u);
  EXPECT_GE(report.rollbacks, 1u);
  ASSERT_NE(supervisor.auditor(), nullptr);
  const resilience::AuditStats& stats = supervisor.auditor()->stats();
  EXPECT_GE(stats.audits, kSteps / 4);
  EXPECT_GE(stats.shadow_replays, 1u);
  EXPECT_EQ(stats.corruptions, 1u);

  // The corruption event localizes the divergence to an interval + blocks.
  bool found = false;
  for (const auto& e : report.events) {
    if (e.kind == resilience::FailureKind::kSilentCorruption) {
      found = true;
      EXPECT_NE(e.detail.find("shadow replay"), std::string::npos);
      EXPECT_NE(e.detail.find("diverged in blocks"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);

  expect_bit_identical(reference, sim);
}

// Same criterion on the modeled machine engine: detection, rollback, and a
// bit-identical finish — audit cost lands in modeled time, not physics.
TEST(Auditor, StateFlipDetectedAndRecoveredBitIdenticalMachine) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  auto model = lj_model();
  auto cfg = machine_config();
  constexpr size_t kSteps = 24;

  ForceField field_ref(spec.topology, model);
  runtime::MachineSimulation reference(field_ref,
                                       machine::anton_with_torus(2, 2, 2),
                                       spec.positions, spec.box, cfg);
  reference.run(kSteps);

  ForceField field(spec.topology, model);
  runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                 spec.positions, spec.box, cfg);

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kBitFlipState;
  plan.fire_after = 6;
  plan.count = 1;
  // High-mantissa bit: the machine engine keeps positions on a fixed-point
  // grid, so a flip below the position quantum is absorbed by the next
  // update — harmless by construction, and correctly not reported.
  plan.payload = 7083;
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.audit.interval = 5;
  sc.audit.shadow_window = 0;
  resilience::Supervisor supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(kSteps);

  EXPECT_EQ(fault::fired_count(fault::FaultKind::kBitFlipState), 1u);
  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(report.corruptions, 1u);
  EXPECT_GE(report.rollbacks, 1u);
  expect_bit_identical(reference, sim);
}

// A flipped bit in a packed spline table: the scrub repairs the region from
// its golden mirror but still reports corruption, because forces computed
// while the table was corrupt have already tainted the dynamic state.
TEST(Auditor, TableFlipScrubRepairsAndRollsBack) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  auto cfg = host_config();
  constexpr size_t kSteps = 24;

  ForceField field_ref(spec.topology, lj_model());
  md::Simulation reference(field_ref, spec.positions, spec.box, cfg);
  reference.run(kSteps);

  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, cfg);
  resilience::Scrubber scrubber;
  scrubber.add_object(field);
  scrubber.add_object(spec.topology);

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kBitFlipTable;
  plan.fire_after = 5;
  plan.count = 1;
  plan.payload = 31337;
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.audit.interval = 4;
  sc.audit.shadow_window = 0;
  resilience::Supervisor supervisor(sim, sc);
  supervisor.enable_audit(&scrubber);
  resilience::RecoveryReport report = supervisor.run(kSteps);

  EXPECT_EQ(fault::fired_count(fault::FaultKind::kBitFlipTable), 1u);
  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(report.corruptions, 1u);
  ASSERT_NE(supervisor.auditor(), nullptr);
  EXPECT_GE(supervisor.auditor()->stats().scrub_repairs, 1u);

  bool found = false;
  for (const auto& e : report.events) {
    if (e.kind == resilience::FailureKind::kSilentCorruption) {
      found = true;
      EXPECT_NE(e.detail.find("static data corrupt"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);

  // The table was repaired and the tainted steps re-run: bit-identical.
  expect_bit_identical(reference, sim);
}

// A flip in the auditor's own retained snapshot buffer: the stored CRC
// catches it before the buffer is ever used as a replay source, and the
// supervisor's ring (an independent, verified copy) provides recovery.
TEST(Auditor, CheckpointBufferFlipDetectedByStoredCrc) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  auto cfg = host_config();
  constexpr size_t kSteps = 24;

  ForceField field_ref(spec.topology, lj_model());
  md::Simulation reference(field_ref, spec.positions, spec.box, cfg);
  reference.run(kSteps);

  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, cfg);

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kBitFlipCheckpointBuffer;
  plan.fire_after = 5;
  plan.count = 1;
  plan.payload = 2025;
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.audit.interval = 4;
  sc.audit.shadow_window = 0;  // baseline retained across the whole interval
  resilience::Supervisor supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(kSteps);

  EXPECT_EQ(fault::fired_count(fault::FaultKind::kBitFlipCheckpointBuffer),
            1u);
  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(report.corruptions, 1u);

  bool found = false;
  for (const auto& e : report.events) {
    if (e.kind == resilience::FailureKind::kSilentCorruption) {
      found = true;
      EXPECT_NE(e.detail.find("snapshot buffer"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);

  expect_bit_identical(reference, sim);
}

// A clean audited run is indistinguishable from an unaudited one: shadow
// replays land bitwise back on the live state, so positions, velocities and
// energies match the reference exactly — verification is invisible.
TEST(Auditor, CleanRunIsBitIdenticalToUnauditedRun) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  auto cfg = host_config();
  constexpr size_t kSteps = 20;

  ForceField field_ref(spec.topology, lj_model());
  md::Simulation reference(field_ref, spec.positions, spec.box, cfg);
  reference.run(kSteps);

  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, cfg);
  resilience::SupervisorConfig sc;
  sc.audit.interval = 4;
  sc.audit.shadow_window = 2;  // partial window: the cheap default
  resilience::Supervisor supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(kSteps);

  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(report.corruptions, 0u);
  EXPECT_EQ(report.rollbacks, 0u);
  ASSERT_NE(supervisor.auditor(), nullptr);
  EXPECT_EQ(supervisor.auditor()->stats().audits, kSteps / 4);
  EXPECT_GE(supervisor.auditor()->stats().shadow_replays, 1u);
  // Every clean audit fed the ring a verified snapshot.
  EXPECT_GE(report.snapshots, 1u + kSteps / 4);

  expect_bit_identical(reference, sim);
}

// A flipped exponent bit in one water's position makes the constraint
// solver diverge at the next step, before any audit point.  Non-convergence
// is a NumericalError, so the supervisor rolls back to the last verified
// snapshot like any numerical failure, and the re-run finishes
// bit-identical to the fault-free run.
TEST(Auditor, ConstraintDivergenceRollsBackBitIdentical) {
  auto spec = build_water_box(216, WaterModel::kRigid3Site, 5);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.4;
  constexpr size_t kSteps = 24;

  // At 4 lanes the SHAKE error leaves a worker's cluster chunk.
  for (size_t lanes : {1, 4}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    md::SimulationConfig cfg = host_config(300.0);
    cfg.dt_fs = 2.0;
    cfg.execution.threads = lanes;

    ForceField field_ref(spec.topology, model);
    md::Simulation reference(field_ref, spec.positions, spec.box, cfg);
    reference.run(kSteps);

    ForceField field(spec.topology, model);
    md::Simulation sim(field, spec.positions, spec.box, cfg);

    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kBitFlipState;
    plan.fire_after = 10;  // lands after step 11
    plan.count = 1;
    plan.payload = 254;  // an exponent bit of atom 1's x coordinate
    fault::ScopedFault f(plan);

    resilience::SupervisorConfig sc;
    sc.audit.interval = 8;
    sc.audit.shadow_window = 0;
    resilience::Supervisor supervisor(sim, sc);
    resilience::RecoveryReport report = supervisor.run(kSteps);

    EXPECT_EQ(fault::fired_count(fault::FaultKind::kBitFlipState), 1u);
    EXPECT_TRUE(report.completed) << report.final_error;
    EXPECT_EQ(report.rollbacks, 1u);
    EXPECT_EQ(report.corruptions, 0u);
    bool found = false;
    for (const auto& e : report.events) {
      if (e.kind == resilience::FailureKind::kNumerical) {
        found = true;
        EXPECT_NE(e.detail.find("failed to converge"), std::string::npos)
            << e.detail;
        EXPECT_NE(e.detail.find("rolled back to step 8"), std::string::npos)
            << e.detail;
      }
    }
    EXPECT_TRUE(found);

    expect_bit_identical(reference, sim);
  }
}

// Persistent corruption (a flip every step) exhausts the corruption budget:
// the supervisor escalates with a typed error instead of looping forever,
// and the report says so in terms an operator can act on.
TEST(Auditor, CorruptionBudgetExhaustionEscalatesTyped) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, host_config());

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kBitFlipState;
  plan.count = -1;  // the "failing DIMM": a flip on every step
  plan.payload = 333;
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.audit.interval = 4;
  sc.audit.shadow_window = 0;
  sc.audit.max_recoveries = 2;
  resilience::Supervisor supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(64);

  EXPECT_FALSE(report.completed);
  // Budget of 2: two recovered episodes, then the third escalates.
  EXPECT_EQ(report.corruptions, 3u);
  EXPECT_EQ(report.rollbacks, 2u);
  EXPECT_EQ(report.final_error.rfind("silent-corruption:", 0), 0u)
      << report.final_error;
  EXPECT_NE(report.final_error.find("corruption budget"), std::string::npos);
  ASSERT_FALSE(report.events.empty());
  EXPECT_EQ(report.events.back().action,
            resilience::RecoveryAction::kEscalate);
  EXPECT_EQ(report.events.back().kind,
            resilience::FailureKind::kSilentCorruption);
}

}  // namespace
}  // namespace antmd
