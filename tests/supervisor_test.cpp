// resilience::Supervisor unit tests: the snapshot ring, failure
// classification, each recovery path (retry/rollback, mirror degrade, node
// remap via the phase watchdog), and the RecoveryReport contract.  The
// bit-identity acceptance matrix lives in fault_test.cpp.
#include <gtest/gtest.h>

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

namespace antmd {
namespace {

std::string temp_path(const std::string& name) {
  return std::string("/tmp/antmd_supervisor_test_") + name;
}

ff::NonbondedModel lj_model() {
  ff::NonbondedModel m;
  m.cutoff = 7.0;
  m.electrostatics = ff::Electrostatics::kNone;
  return m;
}

md::SimulationConfig host_config() {
  md::SimulationConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 120.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 120.0;
  cfg.thermostat.gamma_per_ps = 5.0;
  return cfg;
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

TEST(SnapshotRing, KeepsNewestAndEvictsOldest) {
  resilience::SnapshotRing ring(2);
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW(ring.newest_step(), Error);
  EXPECT_THROW(ring.newest_blob(), Error);

  ring.push(0, "a");
  ring.push(10, "b");
  ring.push(20, "c");  // evicts step 0
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.newest_step(), 20u);
  EXPECT_EQ(ring.newest_blob(), "c");

  // Re-pushing the same step refreshes in place instead of duplicating.
  ring.push(20, "c2");
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.newest_blob(), "c2");
}

TEST(SnapshotRing, ByteBudgetEvictsBelowDepthCap) {
  // Depth alone would hold 8 entries; a 100-byte budget holds only two
  // 40-byte blobs, so old entries evict early and bytes() tracks exactly.
  resilience::SnapshotRing ring(8, 100);
  EXPECT_EQ(ring.bytes(), 0u);
  ring.push(0, std::string(40, 'a'));
  ring.push(10, std::string(40, 'b'));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.bytes(), 80u);

  ring.push(20, std::string(40, 'c'));  // 120 B > 100 B: evicts step 0
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.bytes(), 80u);
  EXPECT_EQ(ring.newest_step(), 20u);

  // Same-step refresh accounts the size delta, not a duplicate.
  ring.push(20, std::string(60, 'C'));
  EXPECT_EQ(ring.bytes(), 100u);
  EXPECT_EQ(ring.size(), 2u);

  // One blob larger than the whole budget: the newest entry always
  // survives so rollback still has a target.
  ring.push(30, std::string(500, 'd'));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.bytes(), 500u);
  EXPECT_EQ(ring.newest_blob(), std::string(500, 'd'));
}

TEST(Supervisor, ByteBoundedRingStillRecoversAndPublishesGauge) {
  obs::ScopedTelemetry telemetry(true);
  auto spec = build_lj_fluid(125, 0.021, 11);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, host_config());

  // Budget below two serialized states: the ring holds exactly the newest
  // snapshot, yet rollback recovery still completes the faulted run.
  util::BinaryWriter probe;
  sim.save_checkpoint(probe);
  const size_t one_state = probe.buffer().size();

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNanForce;
  plan.fire_after = 12;
  plan.payload = 17;
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.snapshot_interval = 5;
  sc.snapshot_ring_depth = 8;
  sc.snapshot_ring_bytes = one_state + one_state / 2;
  resilience::Supervisor<md::Simulation> supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(30);

  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(report.rollbacks, 1u);
  EXPECT_GT(supervisor.snapshot_bytes(), 0u);
  EXPECT_LE(supervisor.snapshot_bytes(), sc.snapshot_ring_bytes);
  // The resident-bytes gauge tracks the ring for the fleet layer.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.gauge_or("resilience.supervisor.snapshot_bytes", -1.0),
            static_cast<double>(supervisor.snapshot_bytes()));
}

TEST(Supervisor, RejectsBadConfig) {
  auto spec = build_lj_fluid(125, 0.021, 1);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, host_config());

  resilience::SupervisorConfig bad;
  bad.max_retries = 0;
  EXPECT_THROW(resilience::Supervisor<md::Simulation>(sim, bad), ConfigError);
  bad = {};
  bad.snapshot_interval = 0;
  EXPECT_THROW(resilience::Supervisor<md::Simulation>(sim, bad), ConfigError);
  bad = {};
  bad.backoff_factor = 0.5;
  EXPECT_THROW(resilience::Supervisor<md::Simulation>(sim, bad), ConfigError);
}

TEST(Supervisor, CleanRunCompletesWithEmptyEventLog) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, host_config());

  resilience::SupervisorConfig sc;
  sc.snapshot_interval = 10;
  resilience::Supervisor<md::Simulation> supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(25);

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.steps_delivered, 25u);
  EXPECT_EQ(report.faults_detected, 0u);
  EXPECT_TRUE(report.events.empty());
  EXPECT_GE(report.snapshots, 3u);  // step 0, 10, 20
  EXPECT_TRUE(report.final_error.empty());
  EXPECT_EQ(sim.state().step, 25u);
}

TEST(Supervisor, TransientIoErrorInStepRollsBackAndCompletes) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, host_config());
  // A trajectory writer whose disk fails exactly once: the step throws
  // IoError, the supervisor rolls back and the re-run sails past.
  bool thrown = false;
  sim.add_observer(
      [&](const md::StepInfo& info) {
        if (info.step == 7 && !thrown) {
          thrown = true;
          throw IoError("transient trajectory write failure");
        }
      },
      1);

  resilience::SupervisorConfig sc;
  sc.snapshot_interval = 5;
  resilience::Supervisor<md::Simulation> supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(20);

  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_TRUE(thrown);
  EXPECT_EQ(report.faults_detected, 1u);
  EXPECT_EQ(report.rollbacks, 1u);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].kind, resilience::FailureKind::kIo);
  EXPECT_EQ(report.events[0].action, resilience::RecoveryAction::kRollback);
  EXPECT_GT(report.events[0].backoff_s, 0.0);
  EXPECT_EQ(sim.state().step, 20u);
}

TEST(Supervisor, PersistentMirrorFailureDegradesInsteadOfAborting) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, host_config());

  // Every checkpoint write fails (disk full): the supervisor retries with
  // backoff, then drops the mirror and finishes on the in-memory ring.
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kIoWriteFail;
  plan.count = -1;
  fault::ScopedFault f(plan);

  std::string path = temp_path("mirror.ckpt");
  resilience::SupervisorConfig sc;
  sc.max_retries = 2;
  sc.snapshot_interval = 10;
  sc.checkpoint_path = path;
  resilience::Supervisor<md::Simulation> supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(25);

  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(sim.state().step, 25u);
  EXPECT_EQ(report.retries, 2u);
  bool degraded = false;
  for (const auto& e : report.events) {
    if (e.action == resilience::RecoveryAction::kDegrade &&
        e.detail.find("mirror disabled") != std::string::npos) {
      degraded = true;
    }
  }
  EXPECT_TRUE(degraded);
  std::remove(path.c_str());
}

TEST(Supervisor, WatchdogRemapsHungNodeAndRunContinues) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  ForceField field(spec.topology, lj_model());
  runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                 spec.positions, spec.box, machine_config());

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNodeHang;
  plan.fire_after = 4;  // transport polls once per step
  plan.count = 1;
  plan.payload = 5;  // node that stops acking
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.watchdog_ms = 1.0;  // modeled steps are ~µs; the 5 ms hang trips this
  sc.snapshot_interval = 10;
  resilience::Supervisor<runtime::MachineSimulation> supervisor(sim, sc);
  resilience::RecoveryReport report = supervisor.run(20);

  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(report.watchdog_trips, 1u);
  EXPECT_EQ(report.node_remaps, 1u);
  EXPECT_TRUE(sim.engine().node_failed(5));
  EXPECT_EQ(sim.engine().alive_node_count(), 7u);
  EXPECT_EQ(sim.transport().hung_node(), machine::StepDelivery::kNoNode);
  EXPECT_EQ(sim.state().step, 20u);
  bool remap_event = false;
  for (const auto& e : report.events) {
    if (e.kind == resilience::FailureKind::kWatchdog &&
        e.action == resilience::RecoveryAction::kDegrade) {
      remap_event = true;
    }
  }
  EXPECT_TRUE(remap_event);
}

TEST(Supervisor, NodeDropoutIsObservedAsDegradeEvent) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  ForceField field(spec.topology, lj_model());
  runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                 spec.positions, spec.box, machine_config());

  resilience::SupervisorConfig sc;
  sc.snapshot_interval = 10;
  resilience::Supervisor<runtime::MachineSimulation> supervisor(sim, sc);
  supervisor.run(5);
  // A node dies mid-run; the engine remaps it silently and bit-exactly —
  // the supervisor's job is to make that visible in the report.
  sim.mutable_engine().set_node_failed(3);
  resilience::RecoveryReport report = supervisor.run(10);

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.node_remaps, 1u);
  ASSERT_GE(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].kind, resilience::FailureKind::kNodeFailure);
  EXPECT_EQ(report.events[0].action, resilience::RecoveryAction::kDegrade);
}

// Transport retry-budget exhaustion: a link that drops every packet burns
// the per-message retry budget, gets down-marked, and traffic reroutes the
// long way around the torus ring.  The cost lands exclusively in the
// reliability accounting — the physics is bit-identical to the healthy run
// — and the degraded link state survives a checkpoint restart, after which
// the run continues bit-identically.
TEST(Supervisor, TransportRetryBudgetExhaustionDownMarksAndStaysBitExact) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  auto model = lj_model();
  auto cfg = machine_config();
  constexpr size_t kSteps = 20;

  ForceField field_ref(spec.topology, model);
  runtime::MachineSimulation reference(field_ref,
                                       machine::anton_with_torus(2, 2, 2),
                                       spec.positions, spec.box, cfg);
  reference.run(kSteps);

  ForceField field(spec.topology, model);
  runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                 spec.positions, spec.box, cfg);
  std::string path = temp_path("transport_budget.ckpt");
  resilience::RecoveryReport report;
  {
    // Every send attempt on the scheduled link times out: the retry budget
    // can never succeed and the transport must escalate to a down-mark.
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kLinkDrop;
    plan.fire_after = 0;
    plan.count = -1;
    fault::ScopedFault f(plan);

    resilience::SupervisorConfig sc;
    sc.snapshot_interval = 10;
    sc.checkpoint_path = path;
    resilience::Supervisor<runtime::MachineSimulation> supervisor(sim, sc);
    report = supervisor.run(kSteps);
  }

  // The run completed without supervisor-level recovery: retry-budget
  // exhaustion is a transport-layer degradation, not a run failure.
  EXPECT_TRUE(report.completed) << report.final_error;
  EXPECT_EQ(report.rollbacks, 0u);

  const machine::TransportStats& stats = sim.transport().stats();
  const int budget = sim.transport().config().retry_budget;
  EXPECT_GT(stats.drops, 0u);
  EXPECT_GE(stats.retransmits, static_cast<uint64_t>(budget));
  EXPECT_GT(stats.rerouted, 0u);
  EXPECT_GT(sim.transport().down_link_count(), 0u);
  // The protocol overhead is charged to reliability (modeled time), never
  // to physics phases — and the trajectory proves it.
  EXPECT_GT(stats.reliability_s, 0.0);
  EXPECT_GT(sim.accumulated().reliability, 0.0);
  const State& sa = reference.state();
  const State& sb = sim.state();
  ASSERT_EQ(sa.positions.size(), sb.positions.size());
  for (size_t i = 0; i < sa.positions.size(); ++i) {
    ASSERT_EQ(sa.positions[i], sb.positions[i]) << "atom " << i;
    ASSERT_EQ(sa.velocities[i], sb.velocities[i]) << "atom " << i;
  }
  EXPECT_EQ(reference.potential_energy(), sim.potential_energy());

  // Restart from the supervisor's mirror: the down-marked links and the
  // cumulative reliability counters come back, and the continued run is
  // bit-identical to the uninterrupted one.
  ForceField field2(spec.topology, model);
  runtime::MachineSimulation restored(field2, machine::anton_with_torus(2, 2, 2),
                                      spec.positions, spec.box, cfg);
  io::load_checkpoint_v2_or_backup(path, {{"sim", &restored}});
  ASSERT_EQ(restored.state().step, kSteps);
  EXPECT_EQ(restored.transport().down_link_count(),
            sim.transport().down_link_count());
  EXPECT_EQ(restored.transport().stats().retransmits, stats.retransmits);
  EXPECT_EQ(restored.transport().stats().reliability_s, stats.reliability_s);

  sim.run(10);
  restored.run(10);
  for (size_t i = 0; i < sim.state().positions.size(); ++i) {
    ASSERT_EQ(sim.state().positions[i], restored.state().positions[i])
        << "atom " << i;
    ASSERT_EQ(sim.state().velocities[i], restored.state().velocities[i])
        << "atom " << i;
  }
  EXPECT_EQ(sim.potential_energy(), restored.potential_energy());
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

// A recovery event is stamped with the step at which the failure was
// detected, not with the step the rollback restored.
TEST(Supervisor, RollbackEventRecordsTheFailingStep) {
  auto spec = build_lj_fluid(125, 0.021, 11);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, host_config());

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kNanForce;
  plan.fire_after = 25;
  plan.payload = 17;
  fault::ScopedFault f(plan);

  resilience::SupervisorConfig sc;
  sc.snapshot_interval = 10;
  resilience::Supervisor<md::Simulation> sup(sim, sc);
  const resilience::RecoveryReport report = sup.run(60);
  ASSERT_TRUE(report.completed) << report.final_error;
  ASSERT_EQ(report.rollbacks, 1u);
  const std::string tag = "rolled back to step ";
  size_t checked = 0;
  for (const auto& e : report.events) {
    if (e.action != resilience::RecoveryAction::kRollback) continue;
    const size_t at = e.detail.find(tag);
    ASSERT_NE(at, std::string::npos) << e.detail;
    const uint64_t target = std::stoull(e.detail.substr(at + tag.size()));
    EXPECT_GT(e.step, target) << e.detail;
    ++checked;
  }
  EXPECT_EQ(checked, 1u);
}

TEST(RecoveryReport, RenderAndAtomicWrite) {
  resilience::RecoveryReport report;
  report.completed = false;
  report.steps_delivered = 17;
  report.faults_detected = 3;
  report.final_error = "numerical: boom";
  report.events.push_back({12, resilience::FailureKind::kNumerical,
                           resilience::RecoveryAction::kRollback, 0.004,
                           "rolled back"});
  std::string text = report.render();
  EXPECT_NE(text.find("run abandoned"), std::string::npos);
  EXPECT_NE(text.find("numerical -> rollback"), std::string::npos);
  EXPECT_NE(text.find("backoff=0.004"), std::string::npos);
  EXPECT_NE(text.find("numerical: boom"), std::string::npos);

  std::string path = temp_path("report.txt");
  resilience::write_recovery_report(path, report);
  EXPECT_EQ(io::read_file(path), text);
  std::remove(path.c_str());

  EXPECT_STREQ(resilience::failure_kind_name(
                   resilience::FailureKind::kWatchdog), "watchdog");
  EXPECT_STREQ(resilience::recovery_action_name(
                   resilience::RecoveryAction::kEscalate), "escalate");
}

}  // namespace
}  // namespace antmd
