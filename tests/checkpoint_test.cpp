// Bit-exact checkpoint/restart tests.
//
// The contract under test (util::Checkpointable): run N steps uninterrupted;
// separately run N/2 steps, save a checkpoint, restore it into a FRESHLY
// constructed object (same constructor arguments) and run the remaining N/2
// steps — every position, velocity, the clock and the fixed-point energies
// must match the uninterrupted run exactly, not approximately.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ff/forcefield.hpp"
#include "io/checkpoint.hpp"
#include "machine/config.hpp"
#include "md/simulation.hpp"
#include "runtime/machine_sim.hpp"
#include "sampling/fep.hpp"
#include "sampling/metadynamics.hpp"
#include "sampling/replica_exchange.hpp"
#include "sampling/tempering.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace antmd {
namespace {

ff::NonbondedModel lj_model(double cutoff = 7.0) {
  ff::NonbondedModel m;
  m.cutoff = cutoff;
  m.electrostatics = ff::Electrostatics::kNone;
  return m;
}

ff::NonbondedModel water_model(double cutoff = 6.0) {
  ff::NonbondedModel m;
  m.cutoff = cutoff;
  m.electrostatics = ff::Electrostatics::kEwaldReal;
  m.ewald_beta = 0.45;
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

std::string save(const util::Checkpointable& c) {
  util::BinaryWriter w;
  c.save_checkpoint(w);
  return w.buffer();
}

void restore(util::Checkpointable& c, const std::string& blob) {
  util::BinaryReader r(blob);
  c.restore_checkpoint(r);
}

void expect_state_eq(const State& resumed, const State& reference) {
  EXPECT_EQ(resumed.step, reference.step);
  EXPECT_EQ(resumed.time, reference.time);
  EXPECT_EQ(resumed.box.edges(), reference.box.edges());
  ASSERT_EQ(resumed.positions.size(), reference.positions.size());
  ASSERT_EQ(resumed.velocities.size(), reference.velocities.size());
  for (size_t i = 0; i < reference.positions.size(); ++i) {
    EXPECT_EQ(resumed.positions[i], reference.positions[i]) << "atom " << i;
    EXPECT_EQ(resumed.velocities[i], reference.velocities[i]) << "atom " << i;
  }
}

TEST(CheckpointResume, LjLangevinBitExact) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  auto model = lj_model();
  auto cfg = langevin_config(120);

  ForceField field_a(spec.topology, model);
  md::Simulation a(field_a, spec.positions, spec.box, cfg);
  a.run(40);

  ForceField field_b(spec.topology, model);
  md::Simulation b(field_b, spec.positions, spec.box, cfg);
  b.run(20);
  std::string blob = save(b);

  ForceField field_c(spec.topology, model);
  md::Simulation c(field_c, spec.positions, spec.box, cfg);
  restore(c, blob);
  c.run(20);

  expect_state_eq(c.state(), a.state());
  EXPECT_EQ(c.potential_energy(), a.potential_energy());
  EXPECT_EQ(c.kinetic_energy(), a.kinetic_energy());
}

TEST(CheckpointResume, WaterKspaceCacheNoseHooverBitExact) {
  // kspace_interval = 2 and an odd split point: the reciprocal-space cache
  // in the checkpoint was computed at *older* positions, so this split only
  // reproduces the uninterrupted run if the cache itself is serialized.
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  auto model = water_model(5.0);
  md::SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.kspace_interval = 2;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 250.0;
  cfg.thermostat.kind = md::ThermostatKind::kNoseHoover;
  cfg.thermostat.temperature_k = 300.0;

  ForceField field_a(spec.topology, model);
  md::Simulation a(field_a, spec.positions, spec.box, cfg);
  a.run(30);

  ForceField field_b(spec.topology, model);
  md::Simulation b(field_b, spec.positions, spec.box, cfg);
  b.run(15);
  std::string blob = save(b);

  ForceField field_c(spec.topology, model);
  md::Simulation c(field_c, spec.positions, spec.box, cfg);
  restore(c, blob);
  c.run(15);

  expect_state_eq(c.state(), a.state());
  EXPECT_EQ(c.potential_energy(), a.potential_energy());
}

TEST(CheckpointResume, RespaInnerLoopBitExact) {
  auto spec = build_water_box(64, WaterModel::kFlexible3Site);
  ff::NonbondedModel model;
  model.cutoff = 5.0;
  model.electrostatics = ff::Electrostatics::kNone;
  md::SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.respa_inner = 4;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 150.0;
  cfg.com_removal_interval = 0;
  cfg.thermostat.kind = md::ThermostatKind::kNoseHoover;
  cfg.thermostat.temperature_k = 150.0;

  ForceField field_a(spec.topology, model);
  md::Simulation a(field_a, spec.positions, spec.box, cfg);
  a.run(24);

  ForceField field_b(spec.topology, model);
  md::Simulation b(field_b, spec.positions, spec.box, cfg);
  b.run(12);
  std::string blob = save(b);

  ForceField field_c(spec.topology, model);
  md::Simulation c(field_c, spec.positions, spec.box, cfg);
  restore(c, blob);
  c.run(12);

  expect_state_eq(c.state(), a.state());
}

TEST(CheckpointResume, MonteCarloBarostatBitExact) {
  // The MC barostat draws from its own RNG and mutates the box; both the
  // RNG position and the accept/attempt counters ride in the checkpoint.
  auto spec = build_lj_fluid(125, 0.030, 23);
  auto model = lj_model();
  auto cfg = langevin_config(130);
  cfg.barostat.kind = md::BarostatKind::kMonteCarlo;
  cfg.barostat.interval = 20;
  cfg.barostat.temperature_k = 130.0;

  ForceField field_a(spec.topology, model);
  md::Simulation a(field_a, spec.positions, spec.box, cfg);
  a.run(80);

  ForceField field_b(spec.topology, model);
  md::Simulation b(field_b, spec.positions, spec.box, cfg);
  b.run(40);
  std::string blob = save(b);

  ForceField field_c(spec.topology, model);
  md::Simulation c(field_c, spec.positions, spec.box, cfg);
  restore(c, blob);
  c.run(40);

  expect_state_eq(c.state(), a.state());
  EXPECT_EQ(c.potential_energy(), a.potential_energy());
}

TEST(CheckpointResume, MachineSimulationBitExact) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  auto model = water_model(5.0);
  runtime::MachineSimConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.kspace_interval = 2;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 250.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 250.0;

  ForceField field_a(spec.topology, model);
  runtime::MachineSimulation a(field_a, machine::anton_with_torus(2, 2, 2),
                               spec.positions, spec.box, cfg);
  a.run(20);

  ForceField field_b(spec.topology, model);
  runtime::MachineSimulation b(field_b, machine::anton_with_torus(2, 2, 2),
                               spec.positions, spec.box, cfg);
  b.run(10);
  std::string blob = save(b);

  ForceField field_c(spec.topology, model);
  runtime::MachineSimulation c(field_c, machine::anton_with_torus(2, 2, 2),
                               spec.positions, spec.box, cfg);
  restore(c, blob);
  c.run(10);

  expect_state_eq(c.state(), a.state());
  EXPECT_EQ(c.potential_energy(), a.potential_energy());
  // The modeled-time accumulators resume too (same additions, same order).
  EXPECT_EQ(c.modeled_time_s(), a.modeled_time_s());
  EXPECT_EQ(c.mean_step_time_s(), a.mean_step_time_s());
}

// Cluster-list state is NOT serialized: restore rebuilds the neighbor list
// (and with it the tiles) deterministically from the restored positions.
// This must still give a bit-exact resume with the cluster kernel selected,
// and the reconstruction itself must be deterministic tile-for-tile.
TEST(CheckpointResume, ClusterKernelResumeBitExact) {
  auto spec = build_ionic_solution(125, 4, 5);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kReactionCutoff;
  auto cfg = langevin_config(160, 2.0);
  cfg.nonbonded_kernel = ff::NonbondedKernel::kCluster;

  ForceField field_a(spec.topology, model);
  md::Simulation a(field_a, spec.positions, spec.box, cfg);
  a.run(40);

  ForceField field_b(spec.topology, model);
  md::Simulation b(field_b, spec.positions, spec.box, cfg);
  b.run(20);
  std::string blob = save(b);

  ForceField field_c(spec.topology, model);
  md::Simulation c(field_c, spec.positions, spec.box, cfg);
  restore(c, blob);
  c.run(20);

  expect_state_eq(c.state(), a.state());
  EXPECT_EQ(c.potential_energy(), a.potential_energy());
  EXPECT_EQ(c.kinetic_energy(), a.kinetic_energy());

  // Rebuilding from the same positions reproduces the cluster layout
  // tile-for-tile — the property the no-serialization design relies on.
  ASSERT_TRUE(c.neighbor_list().cluster_mode());
  md::NeighborList x(spec.topology, model.cutoff, cfg.neighbor_skin, true);
  md::NeighborList y(spec.topology, model.cutoff, cfg.neighbor_skin, true);
  x.build(c.state().positions, c.state().box);
  y.build(c.state().positions, c.state().box);
  ASSERT_EQ(x.clusters().atoms, y.clusters().atoms);
  ASSERT_EQ(x.clusters().entries.size(), y.clusters().entries.size());
  for (size_t k = 0; k < x.clusters().entries.size(); ++k) {
    const auto& ex = x.clusters().entries[k];
    const auto& ey = y.clusters().entries[k];
    EXPECT_EQ(ex.ci, ey.ci);
    EXPECT_EQ(ex.cj, ey.cj);
    EXPECT_EQ(ex.mask, ey.mask);
    EXPECT_EQ(ex.shift, ey.shift);
  }
  EXPECT_EQ(x.clusters().real_pairs, y.clusters().real_pairs);
}

// The flat-pair kernel stays checkpoint-safe too now that cluster is the
// default: exercise the explicit opt-out through the machine model.
TEST(CheckpointResume, MachinePairKernelResumeBitExact) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  auto model = water_model(5.0);
  runtime::MachineSimConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 250.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 250.0;
  cfg.nonbonded_kernel = ff::NonbondedKernel::kPair;

  ForceField field_a(spec.topology, model);
  runtime::MachineSimulation a(field_a, machine::anton_with_torus(2, 2, 2),
                               spec.positions, spec.box, cfg);
  a.run(20);

  ForceField field_b(spec.topology, model);
  runtime::MachineSimulation b(field_b, machine::anton_with_torus(2, 2, 2),
                               spec.positions, spec.box, cfg);
  b.run(10);
  std::string blob = save(b);

  ForceField field_c(spec.topology, model);
  runtime::MachineSimulation c(field_c, machine::anton_with_torus(2, 2, 2),
                               spec.positions, spec.box, cfg);
  restore(c, blob);
  c.run(10);

  expect_state_eq(c.state(), a.state());
  EXPECT_EQ(c.potential_energy(), a.potential_energy());
  EXPECT_EQ(c.modeled_time_s(), a.modeled_time_s());
}

TEST(CheckpointResume, V2FileRoundTripAndMissingSection) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  auto model = lj_model();
  auto cfg = langevin_config(120);

  ForceField field_a(spec.topology, model);
  md::Simulation a(field_a, spec.positions, spec.box, cfg);
  a.run(40);

  ForceField field_b(spec.topology, model);
  md::Simulation b(field_b, spec.positions, spec.box, cfg);
  b.run(20);
  std::string path = "/tmp/antmd_checkpoint_test_v2.ckpt";
  io::save_checkpoint_v2(path, {{"sim", &b}});

  ForceField field_c(spec.topology, model);
  md::Simulation c(field_c, spec.positions, spec.box, cfg);
  io::load_checkpoint_v2(path, {{"sim", &c}});
  c.run(20);
  expect_state_eq(c.state(), a.state());

  // Asking for a section the file does not contain is an IoError, not a
  // silent no-op.
  EXPECT_THROW(io::load_checkpoint_v2(path, {{"tempering", &c}}), IoError);
  std::remove(path.c_str());
}

TEST(CheckpointResume, AtomCountMismatchThrows) {
  auto model = lj_model();
  auto cfg = langevin_config(120);
  auto spec_big = build_lj_fluid(125, 0.021, 3);
  ForceField field_big(spec_big.topology, model);
  md::Simulation big(field_big, spec_big.positions, spec_big.box, cfg);
  big.run(5);
  std::string blob = save(big);

  auto spec_small = build_lj_fluid(216, 0.021, 3);
  ForceField field_small(spec_small.topology, model);
  md::Simulation small(field_small, spec_small.positions, spec_small.box,
                       cfg);
  EXPECT_THROW(restore(small, blob), IoError);
}

TEST(CheckpointResume, TruncatedPayloadThrows) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  auto model = lj_model();
  auto cfg = langevin_config(120);
  ForceField field_a(spec.topology, model);
  md::Simulation a(field_a, spec.positions, spec.box, cfg);
  a.run(5);
  std::string blob = save(a);

  ForceField field_b(spec.topology, model);
  md::Simulation b(field_b, spec.positions, spec.box, cfg);
  EXPECT_THROW(restore(b, blob.substr(0, blob.size() / 2)), IoError);
}

TEST(CheckpointResume, SimulatedTemperingBitExact) {
  auto spec = build_lj_fluid(125, 0.021, 5);
  auto model = lj_model();
  auto cfg = langevin_config(120);
  sampling::TemperingConfig tc;
  tc.ladder = {120, 130, 141};
  tc.attempt_interval = 20;

  ForceField field_a(spec.topology, model);
  md::Simulation sim_a(field_a, spec.positions, spec.box, cfg);
  sampling::SimulatedTempering st_a(sim_a, tc);
  st_a.run(400);

  ForceField field_b(spec.topology, model);
  md::Simulation sim_b(field_b, spec.positions, spec.box, cfg);
  sampling::SimulatedTempering st_b(sim_b, tc);
  st_b.run(200);
  std::string sim_blob = save(sim_b);
  std::string st_blob = save(st_b);

  ForceField field_c(spec.topology, model);
  md::Simulation sim_c(field_c, spec.positions, spec.box, cfg);
  sampling::SimulatedTempering st_c(sim_c, tc);
  restore(sim_c, sim_blob);
  restore(st_c, st_blob);
  st_c.run(200);

  expect_state_eq(sim_c.state(), sim_a.state());
  EXPECT_EQ(st_c.attempts(), st_a.attempts());
  EXPECT_EQ(st_c.accepts(), st_a.accepts());
  EXPECT_EQ(st_c.occupancy(), st_a.occupancy());
  EXPECT_EQ(st_c.current_temperature(), st_a.current_temperature());
  EXPECT_EQ(sim_c.thermostat().temperature_k(), st_c.current_temperature());
}

TEST(CheckpointResume, MetadynamicsBitExact) {
  auto spec = build_dimer_in_solvent(64, 5.0, 13);
  auto model = lj_model(6.0);
  auto cfg = langevin_config(120);
  sampling::MetadynamicsConfig mc;
  mc.initial_height = 0.4;
  mc.sigma = 0.3;
  mc.bias_factor = 6.0;
  mc.deposit_interval = 20;
  mc.cv_min = 2.0;
  mc.cv_max = 9.0;

  ForceField field_a(spec.topology, model);
  md::Simulation sim_a(field_a, spec.positions, spec.box, cfg);
  sampling::Metadynamics meta_a(sim_a, spec.tagged[0], spec.tagged[1], mc);
  meta_a.run(400);

  ForceField field_b(spec.topology, model);
  md::Simulation sim_b(field_b, spec.positions, spec.box, cfg);
  sampling::Metadynamics meta_b(sim_b, spec.tagged[0], spec.tagged[1], mc);
  meta_b.run(200);
  std::string sim_blob = save(sim_b);
  std::string meta_blob = save(meta_b);

  ForceField field_c(spec.topology, model);
  md::Simulation sim_c(field_c, spec.positions, spec.box, cfg);
  sampling::Metadynamics meta_c(sim_c, spec.tagged[0], spec.tagged[1], mc);
  // Hills first: the simulation restore recomputes forces through the live
  // bias closure, which must already see the restored hill list.
  restore(meta_c, meta_blob);
  restore(sim_c, sim_blob);
  meta_c.run(200);

  expect_state_eq(sim_c.state(), sim_a.state());
  EXPECT_EQ(meta_c.hill_count(), meta_a.hill_count());
  EXPECT_EQ(meta_c.bias(5.0), meta_a.bias(5.0));
}

TEST(CheckpointResume, ReplicaExchangeBitExact) {
  auto spec = build_lj_fluid(125, 0.021, 7);
  auto model = lj_model();
  std::vector<double> temps = {120, 130, 141};

  auto make_ladder = [&](std::vector<std::unique_ptr<ForceField>>& fields,
                         std::vector<std::unique_ptr<md::Simulation>>& sims,
                         std::vector<md::Simulation*>& ptrs) {
    for (double t : temps) {
      fields.push_back(std::make_unique<ForceField>(spec.topology, model));
      sims.push_back(std::make_unique<md::Simulation>(
          *fields.back(), spec.positions, spec.box, langevin_config(t)));
      ptrs.push_back(sims.back().get());
    }
  };

  std::vector<std::unique_ptr<ForceField>> fields_a;
  std::vector<std::unique_ptr<md::Simulation>> sims_a;
  std::vector<md::Simulation*> ptrs_a;
  make_ladder(fields_a, sims_a, ptrs_a);
  sampling::TemperatureReplicaExchange remd_a(ptrs_a, temps, 20);
  remd_a.run(200);

  std::vector<std::unique_ptr<ForceField>> fields_b;
  std::vector<std::unique_ptr<md::Simulation>> sims_b;
  std::vector<md::Simulation*> ptrs_b;
  make_ladder(fields_b, sims_b, ptrs_b);
  sampling::TemperatureReplicaExchange remd_b(ptrs_b, temps, 20);
  remd_b.run(100);
  std::vector<std::string> replica_blobs;
  for (auto& s : sims_b) replica_blobs.push_back(save(*s));
  std::string remd_blob = save(remd_b);

  std::vector<std::unique_ptr<ForceField>> fields_c;
  std::vector<std::unique_ptr<md::Simulation>> sims_c;
  std::vector<md::Simulation*> ptrs_c;
  make_ladder(fields_c, sims_c, ptrs_c);
  sampling::TemperatureReplicaExchange remd_c(ptrs_c, temps, 20);
  for (size_t i = 0; i < sims_c.size(); ++i) {
    restore(*sims_c[i], replica_blobs[i]);
  }
  restore(remd_c, remd_blob);
  remd_c.run(100);

  for (size_t i = 0; i < sims_c.size(); ++i) {
    expect_state_eq(sims_c[i]->state(), sims_a[i]->state());
  }
  EXPECT_EQ(remd_c.stats().attempts, remd_a.stats().attempts);
  EXPECT_EQ(remd_c.stats().accepts, remd_a.stats().accepts);
  EXPECT_EQ(remd_c.slot_to_replica(), remd_a.slot_to_replica());
}

TEST(CheckpointResume, FepWindowLadderResumes) {
  auto spec = build_dimer_in_solvent(64, 4.0, 21);
  auto model = lj_model(6.0);
  sampling::FepConfig fc;
  fc.lambdas = {1.0, 0.6, 0.3, 0.0};
  fc.equil_steps = 50;
  fc.prod_steps = 150;
  fc.sample_interval = 5;
  fc.md = langevin_config(120);

  sampling::FepDecoupling fep_a(spec, 0, model, fc);
  EXPECT_EQ(fep_a.run_windows(4), 4u);
  auto result_a = fep_a.finalize();

  sampling::FepDecoupling fep_b(spec, 0, model, fc);
  EXPECT_EQ(fep_b.run_windows(2), 2u);
  std::string blob = save(fep_b);

  sampling::FepDecoupling fep_c(spec, 0, model, fc);
  restore(fep_c, blob);
  EXPECT_EQ(fep_c.windows_done(), 2u);
  EXPECT_EQ(fep_c.run_windows(10), 2u);  // only two windows remain
  auto result_c = fep_c.finalize();

  ASSERT_EQ(result_c.windows.size(), result_a.windows.size());
  for (size_t w = 0; w < result_a.windows.size(); ++w) {
    EXPECT_EQ(result_c.windows[w].lambda, result_a.windows[w].lambda);
    EXPECT_EQ(result_c.windows[w].du_to_next, result_a.windows[w].du_to_next);
    EXPECT_EQ(result_c.windows[w].du_to_prev, result_a.windows[w].du_to_prev);
  }
  EXPECT_EQ(result_c.delta_f_bar, result_a.delta_f_bar);
  EXPECT_EQ(result_c.delta_f_zwanzig, result_a.delta_f_zwanzig);
}

TEST(ConfigValidation, RejectsOutOfRangeFields) {
  md::SimulationConfig cfg;
  EXPECT_NO_THROW(cfg.validate());

  cfg = {};
  cfg.dt_fs = 0.0;
  EXPECT_THROW(cfg.validate(), ConfigError);

  cfg = {};
  cfg.respa_inner = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);

  cfg = {};
  cfg.kspace_interval = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);

  cfg = {};
  cfg.neighbor_skin = -0.5;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

// A barostat reads the virial of one full evaluation, which RESPA's split
// passes never produce: the combination is a ConfigError (antmd_run exit
// 2), not a run whose barostat silently never acts.
TEST(ConfigValidation, RejectsRespaWithBarostat) {
  auto spec = build_lj_fluid(125, 0.021, 1);
  ForceField field(spec.topology, lj_model());
  for (md::BarostatKind kind :
       {md::BarostatKind::kBerendsen, md::BarostatKind::kMonteCarlo,
        md::BarostatKind::kBerendsenSemiIso}) {
    auto cfg = langevin_config(120);
    cfg.barostat.kind = kind;
    EXPECT_NO_THROW(cfg.validate())
        << "barostat kind " << static_cast<int>(kind);
    cfg.respa_inner = 2;
    EXPECT_THROW(cfg.validate(), ConfigError)
        << "barostat kind " << static_cast<int>(kind);
    EXPECT_THROW(md::Simulation(field, spec.positions, spec.box, cfg),
                 ConfigError)
        << "barostat kind " << static_cast<int>(kind);
  }
}

TEST(ConfigValidation, SimulationConstructorValidates) {
  auto spec = build_lj_fluid(125, 0.021, 1);
  ForceField field(spec.topology, lj_model());
  auto cfg = langevin_config(120);
  cfg.dt_fs = -1.0;
  EXPECT_THROW(md::Simulation(field, spec.positions, spec.box, cfg),
               ConfigError);
}

// Both engines reject the same out-of-range fields with the same typed
// ConfigError (antmd_run maps it to exit code 2), before building anything.
TEST(ConfigValidation, BothEnginesRejectBadTimestepAndKspaceInterval) {
  auto spec = build_lj_fluid(125, 0.021, 1);
  ForceField field(spec.topology, lj_model());
  for (double dt : {0.0, -2.0}) {
    auto host = langevin_config(120);
    host.dt_fs = dt;
    EXPECT_THROW(md::Simulation(field, spec.positions, spec.box, host),
                 ConfigError)
        << "host dt_fs=" << dt;
    runtime::MachineSimConfig machine;
    machine.dt_fs = dt;
    EXPECT_THROW(runtime::MachineSimulation(field,
                                            machine::anton_with_torus(2, 2, 2),
                                            spec.positions, spec.box, machine),
                 ConfigError)
        << "machine dt_fs=" << dt;
  }
  auto host = langevin_config(120);
  host.kspace_interval = 0;
  EXPECT_THROW(md::Simulation(field, spec.positions, spec.box, host),
               ConfigError);
  runtime::MachineSimConfig machine;
  machine.kspace_interval = 0;
  EXPECT_THROW(runtime::MachineSimulation(field,
                                          machine::anton_with_torus(2, 2, 2),
                                          spec.positions, spec.box, machine),
               ConfigError);
}

// The machine runs the host's integrator and shares its validation, and
// rejects what it does not model — RESPA and barostats — instead of
// silently running plain NVT.
TEST(ConfigValidation, MachineRejectsRespaAndBarostat) {
  auto spec = build_lj_fluid(125, 0.021, 1);
  ForceField field(spec.topology, lj_model());
  auto build = [&](const runtime::MachineSimConfig& machine) {
    runtime::MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                                   spec.positions, spec.box, machine);
  };
  for (int inner : {0, 2}) {
    runtime::MachineSimConfig machine;
    machine.respa_inner = inner;
    EXPECT_THROW(build(machine), ConfigError) << "respa_inner=" << inner;
  }
  for (md::BarostatKind kind :
       {md::BarostatKind::kBerendsen, md::BarostatKind::kMonteCarlo,
        md::BarostatKind::kBerendsenSemiIso}) {
    runtime::MachineSimConfig machine;
    machine.barostat.kind = kind;
    EXPECT_THROW(build(machine), ConfigError)
        << "barostat kind " << static_cast<int>(kind);
  }
}

TEST(ConfigValidation, SetTimestepRejectsNonPositive) {
  auto spec = build_lj_fluid(125, 0.021, 1);
  ForceField field(spec.topology, lj_model());
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));
  EXPECT_THROW(sim.set_timestep_fs(0.0), ConfigError);
  EXPECT_THROW(sim.set_timestep_fs(-2.0), ConfigError);
  sim.set_timestep_fs(1.0);
  EXPECT_EQ(sim.timestep_fs(), 1.0);
}

}  // namespace
}  // namespace antmd
