// Fault-injection and recovery tests: torn/corrupt checkpoints are rejected
// with IoError, injected force blow-ups trip the Supervisor's health checks
// (throw, or rollback-and-retry at a reduced timestep), and dead torus nodes
// are remapped without changing the trajectory by a single bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "ff/forcefield.hpp"
#include "io/checkpoint.hpp"
#include "machine/config.hpp"
#include "md/simulation.hpp"
#include "resilience/supervisor.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/serialize.hpp"

namespace antmd {
namespace {

std::string temp_path(const std::string& name) {
  return std::string("/tmp/antmd_fault_test_") + name;
}

ff::NonbondedModel lj_model(double cutoff = 7.0) {
  ff::NonbondedModel m;
  m.cutoff = cutoff;
  m.electrostatics = ff::Electrostatics::kNone;
  return m;
}

md::SimulationConfig langevin_config(double temperature, double dt = 4.0) {
  md::SimulationConfig cfg;
  cfg.dt_fs = dt;
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

TEST(CheckpointContainer, FlippedByteFailsCrc) {
  std::string blob = io::encode_checkpoint({{"sim", std::string(256, 'x')}});
  ASSERT_NO_THROW(io::decode_checkpoint(blob));
  std::string bad = blob;
  bad[bad.size() / 2] ^= 0x01;
  EXPECT_THROW(io::decode_checkpoint(bad), IoError);
}

TEST(CheckpointContainer, TruncationRejected) {
  std::string blob = io::encode_checkpoint({{"sim", std::string(256, 'x')}});
  for (size_t keep : {size_t{0}, size_t{4}, blob.size() - 1}) {
    EXPECT_THROW(io::decode_checkpoint(blob.substr(0, keep)), IoError)
        << "kept " << keep << " bytes";
  }
}

TEST(CheckpointContainer, WrongMagicRejected) {
  std::string blob = io::encode_checkpoint({{"sim", "payload"}});
  std::string bad = blob;
  bad[0] ^= 0xFF;
  EXPECT_THROW(io::decode_checkpoint(bad), IoError);
}

TEST(FaultInjection, WriteFailureLeavesPreviousCheckpointIntact) {
  std::string path = temp_path("enospc.ckpt");
  io::write_file_atomic(path, "previous-checkpoint");
  {
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kIoWriteFail;
    fault::ScopedFault f(plan);
    EXPECT_THROW(io::write_file_atomic(path, "replacement"), IoError);
    EXPECT_EQ(fault::fired_count(fault::FaultKind::kIoWriteFail), 1u);
  }
  // The atomic write protocol (temp file + rename) never touched the
  // previous contents.
  EXPECT_EQ(io::read_file(path), "previous-checkpoint");
  // Once disarmed, the same write succeeds.
  io::write_file_atomic(path, "replacement");
  EXPECT_EQ(io::read_file(path), "replacement");
  std::remove(path.c_str());
}

TEST(FaultInjection, ShortWriteIsCaughtByCrcOnLoad) {
  std::string path = temp_path("torn.ckpt");
  std::string blob = io::encode_checkpoint({{"sim", std::string(512, 'y')}});
  {
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kIoShortWrite;
    fault::ScopedFault f(plan);
    io::write_file_atomic(path, blob);  // "succeeds" with a torn blob
    EXPECT_EQ(fault::fired_count(fault::FaultKind::kIoShortWrite), 1u);
  }
  std::string on_disk = io::read_file(path);
  EXPECT_LT(on_disk.size(), blob.size());
  EXPECT_THROW(io::decode_checkpoint(on_disk), IoError);
  std::remove(path.c_str());
}

TEST(HealthPolicy, PoisonedForceRollsBackAtReducedDtAndCompletes) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNanForce;
  plan.fire_after = 25;  // let ~25 force evaluations pass first
  plan.count = 1;
  plan.payload = 7;  // atom to poison
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.snapshot_interval = 10;
  sc.max_retries = 3;
  sc.health.policy = resilience::HealthPolicy::kRollback;
  sc.health.dt_scale_on_retry = 0.5;
  for (double bad : {0.0, 1.5}) {
    resilience::SupervisorConfig rejected = sc;
    rejected.health.dt_scale_on_retry = bad;
    EXPECT_THROW(resilience::Supervisor(sim, rejected), ConfigError) << bad;
  }
  resilience::Supervisor supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(60);

  // The poison fired, was detected, and the run still delivered all steps.
  EXPECT_EQ(fault::fired_count(fault::FaultKind::kNanForce), 1u);
  EXPECT_GE(report.faults_detected, 1u);
  EXPECT_GE(report.rollbacks, 1u);
  ASSERT_FALSE(report.events.empty());
  EXPECT_EQ(report.events.front().kind, resilience::FailureKind::kNumerical);
  EXPECT_EQ(report.events.front().action,
            resilience::RecoveryAction::kRollback);
  EXPECT_NE(report.events.front().detail.find("force"), std::string::npos);
  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(sim.state().step, 60u);
  // Rollback degraded the timestep.
  EXPECT_LT(sim.timestep_fs(), 4.0);
  // The final state is healthy again.
  EXPECT_TRUE(resilience::find_violation(sim, sc.health, 0.0,
                                         sim.state().step)
                  .empty());
}

TEST(HealthPolicy, ThrowPolicyEscalatesImmediately) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNanForce;
  plan.fire_after = 10;
  plan.count = 1;
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.health.policy = resilience::HealthPolicy::kThrow;
  resilience::Supervisor supervisor(sim, sc);
  EXPECT_THROW(supervisor.run(60), NumericalError);
  EXPECT_GE(supervisor.report().faults_detected, 1u);
  EXPECT_EQ(supervisor.report().rollbacks, 0u);
}

TEST(NodeFailure, RemapKeepsTrajectoryBitExact) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  auto model = lj_model();
  auto cfg = machine_config();

  ForceField field_a(spec.topology, model);
  runtime::MachineSimulation healthy(field_a,
                                     machine::anton_with_torus(2, 2, 2),
                                     spec.positions, spec.box, cfg);
  healthy.run(10);

  ForceField field_b(spec.topology, model);
  runtime::MachineSimulation degraded(field_b,
                                      machine::anton_with_torus(2, 2, 2),
                                      spec.positions, spec.box, cfg);
  degraded.mutable_engine().set_node_failed(3);
  EXPECT_TRUE(degraded.engine().node_failed(3));
  EXPECT_EQ(degraded.engine().alive_node_count(), 7u);
  degraded.run(10);

  // Work moved to surviving nodes, but integer force sums commute: the
  // trajectory and energies are identical to the last bit.
  const State& sa = healthy.state();
  const State& sb = degraded.state();
  ASSERT_EQ(sa.positions.size(), sb.positions.size());
  for (size_t i = 0; i < sa.positions.size(); ++i) {
    EXPECT_EQ(sa.positions[i], sb.positions[i]) << "atom " << i;
    EXPECT_EQ(sa.velocities[i], sb.velocities[i]) << "atom " << i;
  }
  EXPECT_EQ(healthy.potential_energy(), degraded.potential_energy());
}

TEST(NodeFailure, InjectedFaultMarksNodeAndRunContinues) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  ForceField field(spec.topology, lj_model());

  // Armed before construction: node redistribution only reruns when the
  // neighbor list rebuilds, so the deterministic place to fire is the
  // initial redistribute in the constructor.
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNodeFail;
  plan.count = 1;
  plan.payload = 5;
  fault::ScopedFault f(plan);
  runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                 spec.positions, spec.box, machine_config());
  sim.run(10);

  EXPECT_EQ(fault::fired_count(fault::FaultKind::kNodeFail), 1u);
  EXPECT_TRUE(sim.engine().node_failed(5));
  EXPECT_EQ(sim.engine().alive_node_count(), 7u);
  EXPECT_TRUE(std::isfinite(sim.potential_energy()));
  EXPECT_EQ(sim.state().step, 10u);
}

// The core PR-4 acceptance matrix: every recoverable fault kind, armed at
// several fire points, run under the supervisor — and in every cell the
// final state must match the fault-free reference to the last bit.  The
// fault's entire footprint is modeled time, retransmit counters and
// recovery events.
TEST(Supervisor, FaultMatrixKeepsTrajectoryBitExact) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  auto model = lj_model();
  auto cfg = machine_config();
  constexpr size_t kSteps = 30;

  ForceField field_ref(spec.topology, model);
  runtime::MachineSimulation reference(field_ref,
                                       machine::anton_with_torus(2, 2, 2),
                                       spec.positions, spec.box, cfg);
  reference.run(kSteps);

  struct Case {
    fault::FaultKind kind;
    uint64_t fire_after;  ///< qualifying events before the fault fires
    uint64_t payload;
  };
  const Case matrix[] = {
      // kNanForce counts force evaluations (one per step)
      {fault::FaultKind::kNanForce, 2, 7},
      {fault::FaultKind::kNanForce, 20, 140},
      // link faults count modeled messages (many per step)
      {fault::FaultKind::kLinkDrop, 0, 0},
      {fault::FaultKind::kLinkDrop, 50, 0},
      {fault::FaultKind::kPacketCorrupt, 0, 0},
      {fault::FaultKind::kPacketCorrupt, 50, 0},
      // kNodeHang counts steps (one transport poll per step)
      {fault::FaultKind::kNodeHang, 3, 5},
      {fault::FaultKind::kNodeHang, 12, 1},
  };

  for (const Case& c : matrix) {
    SCOPED_TRACE(std::string("kind=") +
                 std::to_string(static_cast<int>(c.kind)) +
                 " fire_after=" + std::to_string(c.fire_after));
    ForceField field(spec.topology, model);
    runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                   spec.positions, spec.box, cfg);
    // Armed after construction so fire_after counts run-time events only.
    fault::FaultPlan plan;
    plan.kind = c.kind;
    plan.fire_after = c.fire_after;
    plan.count = 1;
    plan.payload = c.payload;
    fault::ScopedFault f(plan);

    resilience::SupervisorConfig sc;
    sc.max_retries = 3;
    sc.snapshot_interval = 10;
    sc.watchdog_ms = 1.0;  // a 5 ms modeled hang trips this; normal steps not
    resilience::Supervisor supervisor(sim, sc);
    resilience::RecoveryReport report = supervisor.run(kSteps);

    EXPECT_EQ(fault::fired_count(c.kind), 1u);
    EXPECT_TRUE(report.completed) << report.final_error;
    EXPECT_EQ(sim.state().step, kSteps);

    const State& sa = reference.state();
    const State& sb = sim.state();
    ASSERT_EQ(sa.positions.size(), sb.positions.size());
    for (size_t i = 0; i < sa.positions.size(); ++i) {
      ASSERT_EQ(sa.positions[i], sb.positions[i]) << "atom " << i;
      ASSERT_EQ(sa.velocities[i], sb.velocities[i]) << "atom " << i;
    }
    EXPECT_EQ(reference.potential_energy(), sim.potential_energy());
  }
}

// When the retry budget cannot cover the failure (the fault fires on every
// attempt), the supervisor must escalate with a report that accounts for
// every decision — not crash, not loop forever.
TEST(Supervisor, ExhaustedRetryBudgetEscalatesWithAccurateReport) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNanForce;
  plan.fire_after = 5;
  plan.count = -1;  // fires on every evaluation: retry can never succeed
  fault::ScopedFault f(plan);

  std::string report_path = temp_path("escalation.report");
  resilience::SupervisorConfig sc;
  sc.max_retries = 2;
  sc.snapshot_interval = 10;
  sc.report_path = report_path;
  resilience::Supervisor supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(60);

  EXPECT_FALSE(report.completed);
  EXPECT_LT(sim.state().step, 60u);
  // Budget of 2: two rollback attempts, then the third detection escalates.
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.rollbacks, 2u);
  EXPECT_EQ(report.faults_detected, 3u);
  EXPECT_GT(report.recovery_modeled_s, 0.0);
  EXPECT_NE(report.final_error.find("numerical"), std::string::npos);
  ASSERT_GE(report.events.size(), 3u);
  EXPECT_EQ(report.events.back().action,
            resilience::RecoveryAction::kEscalate);
  EXPECT_EQ(report.events.back().kind, resilience::FailureKind::kNumerical);

  // The written report matches the returned one.
  std::string on_disk = io::read_file(report_path);
  EXPECT_NE(on_disk.find("run abandoned"), std::string::npos);
  EXPECT_NE(on_disk.find("rollbacks:          2"), std::string::npos);
  std::remove(report_path.c_str());
}

TEST(NodeFailure, SlowNodeStretchesModeledTimeOnly) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  auto model = lj_model();
  auto cfg = machine_config();

  ForceField field_a(spec.topology, model);
  runtime::MachineSimulation fast(field_a, machine::anton_with_torus(2, 2, 2),
                                  spec.positions, spec.box, cfg);
  fast.run(5);

  ForceField field_b(spec.topology, model);
  runtime::MachineSimulation slow(field_b, machine::anton_with_torus(2, 2, 2),
                                  spec.positions, spec.box, cfg);
  slow.timing().set_node_slowdown(0, 3.0);
  EXPECT_EQ(slow.timing().node_slowdown(0), 3.0);
  slow.run(5);

  // A degraded (but alive) node inflates the modeled critical path...
  EXPECT_GT(slow.modeled_time_s(), fast.modeled_time_s());
  // ...without touching the physics.
  const State& sa = fast.state();
  const State& sb = slow.state();
  for (size_t i = 0; i < sa.positions.size(); ++i) {
    EXPECT_EQ(sa.positions[i], sb.positions[i]) << "atom " << i;
  }
}

// With threads > 1 the force evaluation runs as a task graph on worker
// lanes, and the kNanForce poll follows the graph.  Recovery — rollback and
// re-evaluation on those lanes — must be race-free and bit-identical to
// the fault-free parallel run (this case is part of the tsan sweep).
TEST(Supervisor, WorkerLaneFaultRecoveryIsBitIdentical) {
  auto spec = build_lj_fluid(216, 0.021, 7);
  auto model = lj_model();
  auto cfg = langevin_config(120);
  cfg.execution.threads = 2;
  constexpr size_t kSteps = 30;

  ForceField field_ref(spec.topology, model);
  md::Simulation reference(field_ref, spec.positions, spec.box, cfg);
  reference.run(kSteps);

  ForceField field(spec.topology, model);
  md::Simulation sim(field, spec.positions, spec.box, cfg);

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNanForce;
  plan.fire_after = 12;  // force evaluations
  plan.payload = 9;
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.snapshot_interval = 10;
  resilience::Supervisor supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(kSteps);

  EXPECT_EQ(fault::fired_count(fault::FaultKind::kNanForce), 1u);
  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_GE(report.rollbacks, 1u);

  const State& sa = reference.state();
  const State& sb = sim.state();
  ASSERT_EQ(sa.positions.size(), sb.positions.size());
  for (size_t i = 0; i < sa.positions.size(); ++i) {
    ASSERT_EQ(sa.positions[i], sb.positions[i]) << "atom " << i;
    ASSERT_EQ(sa.velocities[i], sb.velocities[i]) << "atom " << i;
  }
  EXPECT_EQ(reference.potential_energy(), sim.potential_energy());
}

// Scoped plans (fleet multi-tenancy): a plan armed for one scope fires
// only while that scope is current, counts only that scope's events, and
// disarm_scope removes it without touching other tenants or the globals.
TEST(FaultScope, ScopedPlanOnlyFiresInItsScope) {
  fault::disarm_all();
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kIoWriteFail;
  plan.fire_after = 0;
  plan.count = -1;  // every eligible event
  fault::arm_scoped(7, plan);

  // Global scope: the scoped plan is invisible.
  EXPECT_FALSE(fault::should_fire(fault::FaultKind::kIoWriteFail));
  {
    fault::CurrentScope scope(7);
    EXPECT_TRUE(fault::should_fire(fault::FaultKind::kIoWriteFail));
    EXPECT_TRUE(fault::should_fire(fault::FaultKind::kIoWriteFail));
  }
  {
    fault::CurrentScope scope(8);  // a sibling tenant
    EXPECT_FALSE(fault::should_fire(fault::FaultKind::kIoWriteFail));
  }
  EXPECT_EQ(fault::fired_count_scoped(7, fault::FaultKind::kIoWriteFail), 2u);
  EXPECT_EQ(fault::fired_count_scoped(8, fault::FaultKind::kIoWriteFail), 0u);

  fault::disarm_scope(7);
  {
    fault::CurrentScope scope(7);
    EXPECT_FALSE(fault::should_fire(fault::FaultKind::kIoWriteFail));
  }
  fault::disarm_all();
}

TEST(FaultScope, ScopedEventCountingIgnoresOtherScopes) {
  fault::disarm_all();
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNanForce;
  plan.fire_after = 2;  // two qualifying events must pass in-scope first
  fault::arm_scoped(3, plan);

  // Events observed while another scope is current must not advance the
  // plan's fire_after countdown.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(fault::should_fire(fault::FaultKind::kNanForce));
  }
  {
    fault::CurrentScope scope(3);
    EXPECT_FALSE(fault::should_fire(fault::FaultKind::kNanForce));
    EXPECT_FALSE(fault::should_fire(fault::FaultKind::kNanForce));
    EXPECT_TRUE(fault::should_fire(fault::FaultKind::kNanForce));
    EXPECT_FALSE(fault::should_fire(fault::FaultKind::kNanForce));
  }
  fault::disarm_all();
}

TEST(FaultScope, GlobalPlanFiresInEveryScope) {
  fault::disarm_all();
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNodeFail;
  plan.count = -1;
  fault::arm(plan);
  {
    fault::CurrentScope scope(42);
    EXPECT_TRUE(fault::should_fire(fault::FaultKind::kNodeFail));
  }
  EXPECT_TRUE(fault::should_fire(fault::FaultKind::kNodeFail));
  fault::disarm_all();
}

// Fault-schedule invariance under resume: checkpoint a run mid-schedule,
// note how many qualifying events the armed plan has consumed, restore into
// a fresh simulation and re-arm the remainder with
// fire_after' = fire_after - event_count.  The fault must fire at the same
// absolute step and the finished trajectory must match the uninterrupted
// run to the last bit — chaos schedules survive checkpoint/resume.
TEST(FaultSchedule, ResumeReArmsRemainingScheduleAtSameAbsoluteSteps) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  auto cfg = langevin_config(120);
  constexpr size_t kTotal = 60;
  constexpr size_t kSplit = 20;  // checkpoint before the fault is due
  constexpr uint64_t kFireAfter = 25;

  auto make_plan = [](uint64_t fire_after) {
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kNanForce;
    plan.fire_after = fire_after;
    plan.count = 1;
    plan.payload = 7;
    return plan;
  };
  resilience::SupervisorConfig sc;
  sc.snapshot_interval = 10;

  // Reference: the whole schedule in one uninterrupted supervised run.
  ForceField field_ref(spec.topology, lj_model());
  md::Simulation reference(field_ref, spec.positions, spec.box, cfg);
  resilience::RecoveryReport ref_report;
  {
    fault::ScopedFault f(make_plan(kFireAfter));
    resilience::Supervisor sup(reference, sc);
    ref_report = sup.run(kTotal);
    EXPECT_TRUE(ref_report.completed) << ref_report.final_error;
    EXPECT_GE(ref_report.rollbacks, 1u);
    EXPECT_EQ(fault::fired_count(fault::FaultKind::kNanForce), 1u);
  }

  // Interrupted run: clean steps, then checkpoint + note consumed events.
  std::string path = temp_path("resume_schedule.ckpt");
  uint64_t consumed = 0;
  {
    ForceField field(spec.topology, lj_model());
    md::Simulation sim(field, spec.positions, spec.box, cfg);
    fault::ScopedFault f(make_plan(kFireAfter));
    sim.run(kSplit);
    consumed = fault::event_count(fault::FaultKind::kNanForce);
    EXPECT_GT(consumed, 0u);
    EXPECT_LT(consumed, kFireAfter);  // still mid-schedule
    util::BinaryWriter w;
    sim.save_checkpoint(w);
    io::write_file_atomic(path, io::encode_checkpoint({{"sim", w.buffer()}}));
  }

  // Resume: restore, re-arm the remaining schedule, finish supervised.
  ForceField field_res(spec.topology, lj_model());
  md::Simulation resumed(field_res, spec.positions, spec.box, cfg);
  io::load_checkpoint_v2(path, {{"sim", &resumed}});
  ASSERT_EQ(resumed.state().step, kSplit);
  {
    fault::ScopedFault f(make_plan(kFireAfter - consumed));
    resilience::Supervisor sup(resumed, sc);
    resilience::RecoveryReport report = sup.run(kTotal - kSplit);
    EXPECT_TRUE(report.completed) << report.final_error;
    EXPECT_EQ(fault::fired_count(fault::FaultKind::kNanForce), 1u);
    // Same number of recovery decisions, at the same absolute steps.
    ASSERT_EQ(report.events.size(), ref_report.events.size());
    for (size_t i = 0; i < report.events.size(); ++i) {
      EXPECT_EQ(report.events[i].step, ref_report.events[i].step) << i;
      EXPECT_EQ(report.events[i].kind, ref_report.events[i].kind) << i;
      EXPECT_EQ(report.events[i].action, ref_report.events[i].action) << i;
    }
  }

  const State& sa = reference.state();
  const State& sb = resumed.state();
  ASSERT_EQ(sb.step, kTotal);
  for (size_t i = 0; i < sa.positions.size(); ++i) {
    ASSERT_EQ(sa.positions[i], sb.positions[i]) << "atom " << i;
    ASSERT_EQ(sa.velocities[i], sb.velocities[i]) << "atom " << i;
  }
  EXPECT_EQ(reference.potential_energy(), resumed.potential_energy());
  std::remove(path.c_str());
}

// Fault schedules count polls of an injection point, so moving a poll
// moves every scheduled fault.  This pins where each engine polls
// kNanForce: the host once per force evaluation (construction, every step,
// restore, invalidate_forces and each barostat rescale) but not in RESPA's
// bonded-only pass; the machine at construction and on every step, but not
// on restore.
TEST(FaultSchedule, NanForcePollCadenceIsPinnedPerEngine) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  fault::FaultPlan never;
  never.kind = fault::FaultKind::kNanForce;
  never.fire_after = uint64_t{1} << 62;
  fault::ScopedFault armed(never);
  auto polls = [] { return fault::event_count(fault::FaultKind::kNanForce); };
  auto save_restore = [](auto& sim) {
    util::BinaryWriter w;
    sim.save_checkpoint(w);
    util::BinaryReader r(w.buffer());
    sim.restore_checkpoint(r);
  };
  constexpr uint64_t kSteps = 10;
  constexpr int kBarostatInterval = 5;

  {  // Host velocity Verlet with a rescaling barostat.
    ForceField field(spec.topology, lj_model());
    auto cfg = langevin_config(120);
    cfg.barostat.kind = md::BarostatKind::kBerendsen;
    cfg.barostat.interval = kBarostatInterval;
    const uint64_t p0 = polls();
    md::Simulation sim(field, spec.positions, spec.box, cfg);
    EXPECT_EQ(polls() - p0, 1u) << "host construction";
    sim.run(kSteps);
    EXPECT_EQ(polls() - p0, 1 + kSteps + kSteps / kBarostatInterval)
        << "host steps and barostat rescales";
    save_restore(sim);
    EXPECT_EQ(polls() - p0, 2 + kSteps + kSteps / kBarostatInterval)
        << "host restore";
    sim.invalidate_forces();
    EXPECT_EQ(polls() - p0, 3 + kSteps + kSteps / kBarostatInterval)
        << "host invalidate_forces";
  }
  {  // Host RESPA: the first step seeds the split caches with one more
     // nonbonded evaluation; the bonded-only passes never poll.
    ForceField field(spec.topology, lj_model());
    auto cfg = langevin_config(120);
    cfg.respa_inner = 2;
    const uint64_t p0 = polls();
    md::Simulation sim(field, spec.positions, spec.box, cfg);
    EXPECT_EQ(polls() - p0, 1u) << "RESPA construction";
    sim.run(kSteps);
    EXPECT_EQ(polls() - p0, 2 + kSteps) << "RESPA steps";
    save_restore(sim);
    EXPECT_EQ(polls() - p0, 3 + kSteps) << "RESPA restore";
  }
  {  // Machine: construction and steps poll, restore does not.
    ForceField field(spec.topology, lj_model());
    const uint64_t p0 = polls();
    runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                   spec.positions, spec.box,
                                   machine_config());
    EXPECT_EQ(polls() - p0, 1u) << "machine construction";
    sim.run(kSteps);
    EXPECT_EQ(polls() - p0, 1 + kSteps) << "machine steps";
    save_restore(sim);
    EXPECT_EQ(polls() - p0, 1 + kSteps) << "machine restore";
  }
}

TEST(FaultScope, ParseFaultPlanRoundTrips) {
  fault::FaultPlan plan = fault::parse_fault_plan("nan_force:10:2:7");
  EXPECT_EQ(plan.kind, fault::FaultKind::kNanForce);
  EXPECT_EQ(plan.fire_after, 10u);
  EXPECT_EQ(plan.count, 2);
  EXPECT_EQ(plan.payload, 7u);

  plan = fault::parse_fault_plan("node_hang");
  EXPECT_EQ(plan.kind, fault::FaultKind::kNodeHang);
  EXPECT_EQ(plan.fire_after, 0u);
  EXPECT_EQ(plan.count, 1);

  EXPECT_THROW(fault::parse_fault_plan("meteor_strike"), ConfigError);
  EXPECT_THROW(fault::parse_fault_plan("nan_force:abc"), ConfigError);
}

}  // namespace
}  // namespace antmd
