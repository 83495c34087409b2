// Cross-module integration tests: checkpoint/restart continuity, the full
// umbrella→WHAM pipeline, machine-sim + sampling interop, and the
// workload-estimator vs functional-engine consistency check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "analysis/free_energy.hpp"
#include "ff/forcefield.hpp"
#include "io/trajectory.hpp"
#include "machine/workload.hpp"
#include "md/simulation.hpp"
#include "runtime/machine_sim.hpp"
#include "sampling/tempering.hpp"
#include "sampling/umbrella.hpp"
#include "topo/builders.hpp"

namespace antmd {
namespace {

TEST(Integration, CheckpointRestartContinuesBitExact) {
  auto spec = build_lj_fluid(125, 0.021, 7);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;

  md::SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 120.0;
  cfg.thermostat.kind = md::ThermostatKind::kNone;
  cfg.com_removal_interval = 0;

  // Run 40 steps straight through.
  ForceField field_a(spec.topology, model);
  md::Simulation sim_a(field_a, spec.positions, spec.box, cfg);
  sim_a.run(40);

  // Run 20, checkpoint, restore into a fresh simulation, run 20 more.
  ForceField field_b(spec.topology, model);
  md::Simulation sim_b(field_b, spec.positions, spec.box, cfg);
  sim_b.run(20);
  std::string path = "/tmp/antmd_integration_ckpt.bin";
  io::save_checkpoint(path, sim_b.state());

  State restored = io::load_checkpoint(path);
  std::remove(path.c_str());
  ForceField field_c(spec.topology, model);
  md::SimulationConfig cfg_c = cfg;
  cfg_c.init_temperature_k = -1;  // keep restored velocities
  md::Simulation sim_c(field_c, restored.positions, restored.box, cfg_c);
  sim_c.mutable_state().velocities = restored.velocities;
  sim_c.mutable_state().time = restored.time;
  sim_c.mutable_state().step = restored.step;
  sim_c.invalidate_forces();
  sim_c.run(20);

  // Deterministic NVE dynamics: restart must match the straight run
  // bitwise (all operations are reproducible).
  for (size_t i = 0; i < spec.topology.atom_count(); ++i) {
    EXPECT_EQ(sim_a.state().positions[i], sim_c.state().positions[i]) << i;
    EXPECT_EQ(sim_a.state().velocities[i], sim_c.state().velocities[i]) << i;
  }
}

TEST(Integration, UmbrellaWhamRecoversRestraintMinimum) {
  // With a single deep harmonic well imposed via the custom table, the
  // umbrella+WHAM pipeline should put the PMF minimum at the well bottom.
  auto spec = build_dimer_in_solvent(64, 5.0, 31);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kNone;
  auto customize = [&model](ForceField& f) {
    auto t = RadialTable::from_potential(
        [](double r) { return 1.5 * (r - 5.0) * (r - 5.0); },
        [](double r) { return 3.0 * (r - 5.0); }, 1.2, 6.0, 1024, true);
    f.set_custom_pair_table(0, 0, std::move(t));
  };

  sampling::UmbrellaConfig cfg;
  cfg.centers = {4.0, 4.5, 5.0, 5.5, 6.0};
  cfg.k = 15.0;
  cfg.equil_steps = 100;
  cfg.prod_steps = 400;
  cfg.sample_interval = 4;
  cfg.md.dt_fs = 4.0;
  cfg.md.neighbor_skin = 1.0;
  cfg.md.init_temperature_k = 130.0;
  cfg.md.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.md.thermostat.temperature_k = 130.0;

  auto windows = sampling::run_umbrella(spec, model, spec.tagged[0],
                                        spec.tagged[1], cfg, customize);
  auto wham = analysis::wham(windows, 130.0, 3.8, 6.2, 24);

  double best_f = 1e300, best_xi = 0;
  for (size_t b = 0; b < wham.xi.size(); ++b) {
    if (wham.free_energy[b] < best_f) {
      best_f = wham.free_energy[b];
      best_xi = wham.xi[b];
    }
  }
  EXPECT_NEAR(best_xi, 5.0, 0.5);
}

TEST(Integration, TemperingRunsOnTopOfMachineBackedForceField) {
  // Sampling methods drive md::Simulation; the same ForceField instance can
  // simultaneously back a MachineSimulation for cost accounting.
  auto spec = build_lj_fluid(125, 0.021, 11);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);

  md::SimulationConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 120.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 120.0;
  md::Simulation sim(field, spec.positions, spec.box, cfg);

  sampling::TemperingConfig tc;
  tc.ladder = {120, 150, 190};
  tc.attempt_interval = 20;
  sampling::SimulatedTempering st(sim, tc);
  st.run(300);
  EXPECT_GT(st.attempts(), 10u);

  // Cost of the tempering decisions on the machine model.
  runtime::MachineSimConfig mcfg;
  mcfg.dt_fs = 4.0;
  mcfg.neighbor_skin = 1.0;
  mcfg.init_temperature_k = 120.0;
  runtime::MachineSimulation msim(field, machine::anton_with_torus(2, 2, 2),
                                  spec.positions, spec.box, mcfg);
  msim.note_tempering_decision();
  msim.step();
  EXPECT_GT(msim.last_breakdown().tempering, 0.0);
  msim.step();
  EXPECT_EQ(msim.last_breakdown().tempering, 0.0);  // one-shot accounting
}

TEST(Integration, WorkloadEstimatorTracksFunctionalEngine) {
  // The analytic estimator used for paper-scale benches must agree with
  // real counts from the functional engine on a system both can handle.
  auto spec = build_water_box(512, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 8.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.4;
  ForceField field(spec.topology, model);

  const int edge = 2;
  runtime::DistributedEngine engine(
      field, machine::anton_with_torus(edge, edge, edge));
  md::NeighborList list(spec.topology, model.cutoff, 0.0);
  auto positions = spec.positions;
  list.build(positions, spec.box);
  engine.redistribute(positions, spec.box, list.pairs());
  ForceResult out(spec.topology.atom_count());
  ForceResult kcache(spec.topology.atom_count());
  auto real_work =
      engine.evaluate(positions, spec.box, 0.0, true, out, kcache);

  auto stats = machine::SystemStats::water(512);
  machine::WorkloadParams params;
  params.cutoff = model.cutoff;
  auto est_work = machine::estimate_step_work(stats, 8, params);

  size_t real_pairs = 0, est_pairs = 0;
  double real_import = 0, est_import = 0;
  for (const auto& n : real_work.nodes) {
    real_pairs += n.pairs;
    real_import += n.import_bytes;
  }
  for (const auto& n : est_work.nodes) {
    est_pairs += n.pairs;
    est_import += n.import_bytes;
  }
  // Within ~35% is fine for an analytic estimate.
  EXPECT_NEAR(static_cast<double>(est_pairs),
              static_cast<double>(real_pairs),
              0.35 * static_cast<double>(real_pairs));
  EXPECT_GT(est_import, 0.2 * real_import);
  EXPECT_LT(est_import, 5.0 * real_import);
  // k-space grids agree.
  EXPECT_EQ(est_work.kspace.grid_points, real_work.kspace.grid_points);
}

TEST(Integration, TrajectoryWriterRoundTripsThroughSimulation) {
  auto spec = build_water_box(27, WaterModel::kFlexible3Site);
  ff::NonbondedModel model;
  model.cutoff = 4.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  md::SimulationConfig cfg;
  cfg.dt_fs = 0.5;
  cfg.neighbor_skin = 0.5;
  cfg.init_temperature_k = 150.0;
  md::Simulation sim(field, spec.positions, spec.box, cfg);

  std::string path = "/tmp/antmd_integration_traj.xyz";
  {
    io::XyzWriter writer(path, spec.topology);
    for (int f = 0; f < 3; ++f) {
      sim.run(5);
      writer.write_frame(sim.state());
    }
    EXPECT_EQ(writer.frames_written(), 3u);
  }
  std::ifstream in(path);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  std::remove(path.c_str());
  EXPECT_EQ(lines, 3 * (2 + spec.topology.atom_count()));
}

}  // namespace
}  // namespace antmd
