// Tests for the distributed runtime: decomposition correctness, the
// bit-exact determinism contract across node counts (the paper's fixed-
// point guarantee, experiment T5), workload accounting, agreement with the
// single-host engine, and the sampling drivers on the machine.
#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "ff/forcefield.hpp"
#include "machine/config.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "runtime/decomposition.hpp"
#include "runtime/engine.hpp"
#include "runtime/machine_sim.hpp"
#include "sampling/metadynamics.hpp"
#include "sampling/replica_exchange.hpp"
#include "sampling/smd.hpp"
#include "sampling/tamd.hpp"
#include "sampling/tempering.hpp"
#include "sampling/torsion_meta.hpp"
#include "topo/builders.hpp"

namespace antmd::runtime {
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

TEST(Decomposition, EveryAtomOwnedExactlyOnce) {
  auto spec = build_lj_fluid(343, 0.021, 3);
  machine::TorusTopology torus(machine::anton_with_torus(2, 2, 2));
  SpatialDecomposition decomp(torus, spec.box);
  decomp.assign_atoms(spec.positions, spec.box);
  auto counts = decomp.atoms_per_node();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), size_t{0}), 343u);
  // Uniform fluid: every node owns something.
  for (size_t c : counts) EXPECT_GT(c, 0u);
}

TEST(Decomposition, OwnerMatchesSpatialCell) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  machine::TorusTopology torus(machine::anton_with_torus(3, 3, 3));
  SpatialDecomposition decomp(torus, spec.box);
  decomp.assign_atoms(spec.positions, spec.box);
  for (uint32_t i = 0; i < 216; ++i) {
    EXPECT_EQ(decomp.owner(i), decomp.node_at(spec.positions[i], spec.box));
  }
}

TEST(Decomposition, PairRulesAssignEveryPair) {
  auto spec = build_lj_fluid(216, 0.021, 5);
  machine::TorusTopology torus(machine::anton_with_torus(2, 2, 2));
  SpatialDecomposition decomp(torus, spec.box);
  decomp.assign_atoms(spec.positions, spec.box);

  md::NeighborList list(spec.topology, 7.0, 1.0);
  list.build(spec.positions, spec.box);

  for (auto rule : {PairAssignment::kHomeOfFirst, PairAssignment::kMidpoint}) {
    auto nodes = decomp.assign_pairs(list.pairs(), spec.positions, spec.box,
                                     rule);
    ASSERT_EQ(nodes.size(), list.pairs().size());
    for (uint32_t n : nodes) EXPECT_LT(n, 8u);
  }
}

TEST(Engine, ForcesBitIdenticalAcrossNodeCounts) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  auto model = water_model(5.0);

  std::vector<std::array<int, 3>> layouts = {
      {1, 1, 1}, {2, 2, 2}, {4, 4, 4}, {8, 8, 8}};
  std::vector<ForceResult> results;
  for (const auto& dims : layouts) {
    ForceField field(spec.topology, model);
    DistributedEngine engine(
        field, machine::anton_with_torus(dims[0], dims[1], dims[2]));
    md::NeighborList list(spec.topology, model.cutoff, 1.0);
    auto positions = spec.positions;
    list.build(positions, spec.box);
    engine.redistribute(positions, spec.box, list.pairs());

    ForceResult out(spec.topology.atom_count());
    ForceResult kcache(spec.topology.atom_count());
    engine.evaluate(positions, spec.box, 0.0, true, out, kcache);
    results.push_back(std::move(out));
  }
  for (size_t k = 1; k < results.size(); ++k) {
    EXPECT_EQ(results[0].forces, results[k].forces)
        << "forces differ between layouts 0 and " << k;
    EXPECT_EQ(results[0].energy.vdw, results[k].energy.vdw);
    EXPECT_EQ(results[0].energy.coulomb_real, results[k].energy.coulomb_real);
    EXPECT_EQ(results[0].energy.bond, results[k].energy.bond);
  }
}

std::array<uint64_t, 9> virial_bits(const Mat3& v) {
  std::array<uint64_t, 9> bits{};
  for (size_t k = 0; k < 9; ++k) bits[k] = std::bit_cast<uint64_t>(v.m[k]);
  return bits;
}

void expect_same_energy(const EnergyBreakdown& a, const EnergyBreakdown& b) {
  EXPECT_EQ(a.bond, b.bond);
  EXPECT_EQ(a.angle, b.angle);
  EXPECT_EQ(a.dihedral, b.dihedral);
  EXPECT_EQ(a.vdw, b.vdw);
  EXPECT_EQ(a.coulomb_real, b.coulomb_real);
  EXPECT_EQ(a.coulomb_kspace, b.coulomb_kspace);
  EXPECT_EQ(a.coulomb_self, b.coulomb_self);
  EXPECT_EQ(a.pair14, b.pair14);
  EXPECT_EQ(a.restraint, b.restraint);
  EXPECT_EQ(a.external, b.external);
}

void expect_same_work(const machine::StepWork& a, const machine::StepWork& b) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t n = 0; n < a.nodes.size(); ++n) {
    const machine::NodeWork& x = a.nodes[n];
    const machine::NodeWork& y = b.nodes[n];
    EXPECT_EQ(x.pairs, y.pairs) << "node " << n;
    EXPECT_EQ(x.pairs_examined, y.pairs_examined) << "node " << n;
    EXPECT_EQ(x.cluster_tiles, y.cluster_tiles) << "node " << n;
    EXPECT_EQ(x.cluster_lanes, y.cluster_lanes) << "node " << n;
    EXPECT_EQ(x.gc_force_flops, y.gc_force_flops) << "node " << n;
    EXPECT_EQ(x.gc_update_flops, y.gc_update_flops) << "node " << n;
    EXPECT_EQ(x.import_bytes, y.import_bytes) << "node " << n;
    EXPECT_EQ(x.export_bytes, y.export_bytes) << "node " << n;
    EXPECT_EQ(x.messages, y.messages) << "node " << n;
  }
  EXPECT_EQ(a.kspace.active, b.kspace.active);
  EXPECT_EQ(a.kspace.grid_points, b.kspace.grid_points);
  EXPECT_EQ(a.kspace.charges, b.kspace.charges);
  EXPECT_EQ(a.kspace.stencil_points, b.kspace.stencil_points);
  EXPECT_EQ(a.kspace.fft_flops, b.kspace.fft_flops);
}

// One machine evaluation of 216 rigid waters with GSE on an n×n×n torus
// with `lanes` host lanes; `positions` ends snapped to the wire format.
struct MachineEval {
  ForceResult out;
  ForceResult kspace_cache;
  machine::StepWork work;
};

MachineEval evaluate_water(const SystemSpec& spec, ForceField& field, int n,
                           size_t lanes, std::vector<Vec3>& positions) {
  EngineOptions options;
  options.execution.threads = lanes;
  DistributedEngine engine(field, machine::anton_with_torus(n, n, n), options);
  md::NeighborList list(spec.topology, field.model().cutoff, 1.0, true);
  positions = spec.positions;
  list.build(positions, spec.box);
  engine.redistribute(positions, spec.box, {}, &list.clusters());
  MachineEval e{ForceResult(spec.topology.atom_count()),
                ForceResult(spec.topology.atom_count()), {}};
  e.work = engine.evaluate(positions, spec.box, 0.0, true, e.out,
                           e.kspace_cache);
  return e;
}

TEST(Engine, EvaluationBitIdenticalAcrossLaneCounts) {
  auto spec = build_water_box(216, WaterModel::kRigid3Site);
  ForceField field(spec.topology, water_model(6.0));
  for (int n : {2, 4}) {
    std::vector<Vec3> positions;
    const MachineEval ref = evaluate_water(spec, field, n, 1, positions);
    EXPECT_TRUE(ref.work.kspace.active);
    for (size_t lanes : {2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << n << "^3 nodes, " << lanes
                                      << " lanes");
      const MachineEval e = evaluate_water(spec, field, n, lanes, positions);
      EXPECT_EQ(e.out.forces, ref.out.forces);
      expect_same_energy(e.out.energy, ref.out.energy);
      EXPECT_EQ(virial_bits(e.out.virial), virial_bits(ref.out.virial));
      expect_same_work(e.work, ref.work);
    }
  }
}

TEST(Engine, KspaceCacheMatchesForceFieldAtSnappedPositions) {
  auto spec = build_water_box(216, WaterModel::kRigid3Site);
  ForceField field(spec.topology, water_model(6.0));
  for (size_t lanes : {1, 4}) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    std::vector<Vec3> positions;
    const MachineEval e = evaluate_water(spec, field, 2, lanes, positions);
    ForceResult ref(spec.topology.atom_count());
    field.compute_kspace(positions, spec.box, ref);
    EXPECT_EQ(e.kspace_cache.forces, ref.forces);
    expect_same_energy(e.kspace_cache.energy, ref.energy);
    EXPECT_EQ(virial_bits(e.kspace_cache.virial), virial_bits(ref.virial));
  }
}

TEST(Engine, MidpointRuleAlsoDeterministic) {
  auto spec = build_lj_fluid(216, 0.021, 9);
  auto model = lj_model();
  EngineOptions opt;
  opt.pair_rule = PairAssignment::kMidpoint;

  std::vector<ForceResult> results;
  for (int n : {1, 4}) {
    ForceField field(spec.topology, model);
    DistributedEngine engine(field, machine::anton_with_torus(n, n, n), opt);
    md::NeighborList list(spec.topology, model.cutoff, 1.0);
    auto positions = spec.positions;
    list.build(positions, spec.box);
    engine.redistribute(positions, spec.box, list.pairs());
    ForceResult out(216), kcache(216);
    engine.evaluate(positions, spec.box, 0.0, true, out, kcache);
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0].forces, results[1].forces);
}

TEST(Engine, WorkloadCountsCoverAllPairs) {
  auto spec = build_lj_fluid(216, 0.021, 11);
  auto model = lj_model();
  ForceField field(spec.topology, model);
  DistributedEngine engine(field, machine::anton_with_torus(2, 2, 2));
  md::NeighborList list(spec.topology, model.cutoff, 1.0);
  auto positions = spec.positions;
  list.build(positions, spec.box);
  engine.redistribute(positions, spec.box, list.pairs());
  ForceResult out(216), kcache(216);
  auto work = engine.evaluate(positions, spec.box, 0.0, true, out, kcache);
  size_t total_pairs = 0;
  for (const auto& n : work.nodes) total_pairs += n.pairs;
  EXPECT_EQ(total_pairs, list.pairs().size());
  // Multi-node decomposition of a dense fluid must import something.
  double total_import = 0;
  for (const auto& n : work.nodes) total_import += n.import_bytes;
  EXPECT_GT(total_import, 0.0);
}

TEST(Engine, SingleNodeImportsNothing) {
  auto spec = build_lj_fluid(125, 0.021, 13);
  auto model = lj_model();
  ForceField field(spec.topology, model);
  DistributedEngine engine(field, machine::anton_with_torus(1, 1, 1));
  md::NeighborList list(spec.topology, model.cutoff, 1.0);
  auto positions = spec.positions;
  list.build(positions, spec.box);
  engine.redistribute(positions, spec.box, list.pairs());
  ForceResult out(125), kcache(125);
  auto work = engine.evaluate(positions, spec.box, 0.0, true, out, kcache);
  ASSERT_EQ(work.nodes.size(), 1u);
  EXPECT_EQ(work.nodes[0].import_bytes, 0.0);
  EXPECT_EQ(work.nodes[0].messages, 0u);
}

TEST(MachineSim, TrajectoryBitIdenticalAcrossNodeCounts) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  auto model = water_model(5.0);

  auto run_traj = [&](int n) {
    ForceField field(spec.topology, model);
    MachineSimConfig cfg;
    cfg.dt_fs = 2.0;
    cfg.kspace_interval = 2;
    cfg.neighbor_skin = 1.0;
    cfg.init_temperature_k = 250.0;
    cfg.thermostat.kind = md::ThermostatKind::kLangevin;
    cfg.thermostat.temperature_k = 250.0;
    MachineSimulation sim(field, machine::anton_with_torus(n, n, n),
                          spec.positions, spec.box, cfg);
    sim.run(25);
    return sim.state().positions;
  };

  auto p1 = run_traj(1);
  auto p2 = run_traj(2);
  auto p4 = run_traj(4);
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i], p2[i]) << "atom " << i << " differs (1 vs 8 nodes)";
    EXPECT_EQ(p1[i], p4[i]) << "atom " << i << " differs (1 vs 64 nodes)";
  }
}

TEST(MachineSim, EnergyAgreesWithHostSimulation) {
  // The machine path quantizes positions through the wire format, so it is
  // not bitwise-equal to md::Simulation — but energies must agree closely.
  auto spec = build_lj_fluid(125, 0.021, 17);
  auto model = lj_model();

  ForceField field_host(spec.topology, model);
  md::SimulationConfig host_cfg;
  host_cfg.dt_fs = 2.0;
  host_cfg.neighbor_skin = 1.0;
  host_cfg.init_temperature_k = 120.0;
  host_cfg.com_removal_interval = 0;
  md::Simulation host(field_host, spec.positions, spec.box, host_cfg);

  ForceField field_machine(spec.topology, model);
  MachineSimConfig mc;
  mc.dt_fs = 2.0;
  mc.neighbor_skin = 1.0;
  mc.init_temperature_k = 120.0;
  mc.velocity_seed = host_cfg.velocity_seed;
  mc.thermostat.kind = md::ThermostatKind::kNone;
  MachineSimulation machine_sim(field_machine,
                                machine::anton_with_torus(2, 2, 2),
                                spec.positions, spec.box, mc);

  EXPECT_NEAR(machine_sim.potential_energy(), host.potential_energy(),
              1e-3 * std::abs(host.potential_energy()) + 1e-3);
  host.run(20);
  machine_sim.run(20);
  EXPECT_NEAR(machine_sim.potential_energy(), host.potential_energy(),
              2e-2 * std::abs(host.potential_energy()) + 0.5);
}

// A machine running a dimer in LJ solvent, built before any bias exists —
// the order in which sampling drivers (metadynamics, TAMD) attach theirs.
MachineSimulation dimer_machine(const SystemSpec& spec, ForceField& field) {
  MachineSimConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 120.0;
  cfg.thermostat.kind = md::ThermostatKind::kNone;
  return MachineSimulation(field, machine::anton_with_torus(2, 2, 2),
                           spec.positions, spec.box, cfg);
}

// U = 10 r on the dimer's two atoms.
ff::PairBias linear_bias() {
  return {0, 1, [](double r) { return std::pair{10.0 * r, 10.0}; }};
}

TEST(MachineSim, SeesPairBiasAddedAfterConstruction) {
  auto spec = build_dimer_in_solvent(200, 4.0, 3);
  ForceField field(spec.topology, lj_model(6.0));
  MachineSimulation sim = dimer_machine(spec, field);
  field.add_pair_bias(linear_bias());
  sim.step();
  ForceResult ref(spec.topology.atom_count());
  ff::compute_pair_biases(field.pair_biases(), sim.state().positions,
                          sim.state().box, ref);
  EXPECT_GT(ref.energy.restraint.value(), 0.0);
  EXPECT_EQ(sim.forces().energy.restraint, ref.energy.restraint);
}

TEST(MachineSim, ClearedPairBiasLeavesNoStaleCopy) {
  auto spec = build_dimer_in_solvent(200, 4.0, 3);
  ForceField field(spec.topology, lj_model(6.0));
  field.add_pair_bias(linear_bias());
  MachineSimulation sim = dimer_machine(spec, field);
  sim.step();
  EXPECT_GT(sim.forces().energy.restraint.value(), 0.0);
  field.clear_pair_biases();
  sim.step();
  EXPECT_EQ(sim.forces().energy.restraint.raw(), 0);
}

TEST(MachineSim, ModeledTimeAccumulates) {
  auto spec = build_lj_fluid(216, 0.021, 19);
  auto model = lj_model();
  ForceField field(spec.topology, model);
  MachineSimConfig cfg;
  cfg.dt_fs = 2.5;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 120.0;
  MachineSimulation sim(field, machine::anton_with_torus(2, 2, 2),
                        spec.positions, spec.box, cfg);
  sim.run(10);
  EXPECT_GT(sim.modeled_time_s(), 0.0);
  EXPECT_GT(sim.mean_step_time_s(), 0.0);
  EXPECT_GT(sim.ns_per_day(), 0.0);
  EXPECT_GT(sim.last_breakdown().total, 0.0);
  // Accumulated totals exceed any single step.
  EXPECT_GE(sim.accumulated().total, sim.last_breakdown().total);
}

TEST(MachineSim, MoreNodesMeansFasterSteps) {
  auto spec = build_water_box(216, WaterModel::kRigid3Site);
  auto model = water_model(6.0);

  auto mean_step = [&](int n) {
    ForceField field(spec.topology, model);
    MachineSimConfig cfg;
    cfg.dt_fs = 2.0;
    cfg.neighbor_skin = 1.0;
    cfg.init_temperature_k = 250.0;
    MachineSimulation sim(field, machine::anton_with_torus(n, n, n),
                          spec.positions, spec.box, cfg);
    sim.run(5);
    return sim.mean_step_time_s();
  };
  double t1 = mean_step(1);
  double t4 = mean_step(4);
  EXPECT_LT(t4, t1);  // 64 nodes beat 1 node on a 216-water box
}

// --- sampling drivers on the machine ------------------------------------------
// Every driver in src/sampling takes md::Simulation&.  Each runs here on a
// 1-node and an 8-node machine evaluating k-space every step; its extension
// term reaches the node slots only through the machine's force graph.  The
// final state must not depend on the node count, and every step's forces
// and energy terms — the first step's included — must equal a ForceField
// evaluation at the machine's (wire-snapped) positions.

constexpr size_t kDriverSteps = 12;

MachineSimConfig driver_config() {
  MachineSimConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.kspace_interval = 1;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 300.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 300.0;
  return cfg;
}

// Bonded + nonbonded (a fresh list) + k-space at `sim`'s positions.
ForceResult field_evaluation(const md::Simulation& sim, double time) {
  const ForceField& field = sim.force_field();
  const State& s = sim.state();
  ForceResult ref(s.positions.size());
  field.compute_bonded_terms(field.bonded_terms(), s.positions, s.box, time,
                             ref);
  md::NeighborList list(field.topology(), field.model().cutoff, 0.0);
  list.build(s.positions, s.box);
  field.compute_nonbonded(list.pairs(), s.positions, s.box, ref);
  field.compute_kspace(s.positions, s.box, ref);
  return ref;
}

// Checks every step from an observer, which runs at the end of the step,
// before a driver reacts to it (moves z, deposits a hill).  The evaluation
// ran at the time the step started from.
void check_every_step(md::Simulation& sim) {
  sim.add_observer(
      [&sim, t = sim.state().time](const md::StepInfo& info) mutable {
        SCOPED_TRACE(testing::Message() << "step " << info.step);
        const ForceResult ref = field_evaluation(sim, t);
        EXPECT_EQ(sim.forces().forces, ref.forces);
        expect_same_energy(sim.forces().energy, ref.energy);
        t = info.time;
      });
}

void expect_same_state(const State& a, const State& b) {
  EXPECT_EQ(a.step, b.step);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (size_t i = 0; i < a.positions.size(); ++i) {
    ASSERT_EQ(a.positions[i], b.positions[i]) << "atom " << i;
    ASSERT_EQ(a.velocities[i], b.velocities[i]) << "atom " << i;
  }
}

// Runs drive(sim) on 64 GSE waters at 1x1x1 and 2x2x2 nodes, each with a
// fresh force field, and expects the same final state.
template <typename Drive>
void expect_node_count_invariant(Drive drive) {
  const SystemSpec spec = build_water_box(64, WaterModel::kRigid3Site);
  std::vector<State> finals;
  for (int n : {1, 2}) {
    SCOPED_TRACE(testing::Message() << n << "^3 nodes");
    ForceField field(spec.topology, water_model(5.0));
    MachineSimulation sim(field, machine::anton_with_torus(n, n, n),
                          spec.positions, spec.box, driver_config());
    check_every_step(sim);
    drive(sim);
    finals.push_back(sim.state());
  }
  expect_same_state(finals[0], finals[1]);
}

// Oxygens of the first four waters: the collective variables' atoms.
constexpr uint32_t kO0 = 0, kO1 = 3, kO2 = 6, kO3 = 9;

TEST(MachineDrivers, SimulatedTempering) {
  expect_node_count_invariant([](md::Simulation& sim) {
    sampling::TemperingConfig tc;
    tc.ladder = {300.0, 330.0, 360.0};
    tc.attempt_interval = 3;
    sampling::SimulatedTempering tempering(sim, tc);
    tempering.run(kDriverSteps);
    EXPECT_EQ(tempering.attempts(), kDriverSteps / 3);
  });
}

TEST(MachineDrivers, Metadynamics) {
  expect_node_count_invariant([](md::Simulation& sim) {
    sampling::MetadynamicsConfig mc;
    mc.deposit_interval = 3;
    sampling::Metadynamics meta(sim, kO0, kO1, mc);
    meta.run(kDriverSteps);
    EXPECT_EQ(meta.hill_count(), kDriverSteps / 3);
    EXPECT_GT(sim.forces().energy.restraint.value(), 0.0);
  });
}

TEST(MachineDrivers, TorsionMetadynamics) {
  expect_node_count_invariant([](md::Simulation& sim) {
    sampling::TorsionMetaConfig tc;
    tc.deposit_interval = 3;
    sampling::TorsionMetadynamics meta(sim, kO0, kO1, kO2, kO3, tc);
    meta.run(kDriverSteps);
    EXPECT_EQ(meta.hill_count(), kDriverSteps / 3);
    EXPECT_GT(sim.forces().energy.restraint.value(), 0.0);
  });
}

TEST(MachineDrivers, Tamd) {
  expect_node_count_invariant([](md::Simulation& sim) {
    sampling::Tamd tamd(sim, kO0, kO1, sampling::TamdConfig{});
    const double z0 = tamd.z();
    tamd.run(kDriverSteps);
    EXPECT_NE(tamd.z(), z0);
    EXPECT_GT(sim.forces().energy.restraint.value(), 0.0);
  });
}

TEST(MachineDrivers, SteeredPull) {
  expect_node_count_invariant([](md::Simulation& sim) {
    const State& s = sim.state();
    const double r0 = norm(s.box.min_image(s.positions[kO0], s.positions[kO1]));
    const size_t spring = sim.force_field().add_steered_spring(
        {kO0, kO1, 5.0, r0, 0.01});
    sampling::SteeredPull pull(sim, spring);
    pull.run(kDriverSteps, 3);
    EXPECT_EQ(pull.times().size(), kDriverSteps / 3);
    EXPECT_GT(sim.forces().energy.restraint.value(), 0.0);
  });
}

TEST(MachineDrivers, HamiltonianReplicaExchange) {
  const SystemSpec spec = build_water_box(64, WaterModel::kRigid3Site);
  std::vector<std::array<State, 2>> finals;
  for (int n : {1, 2}) {
    SCOPED_TRACE(testing::Message() << n << "^3 nodes");
    ForceField field_a(spec.topology, water_model(5.0));
    ForceField field_b(spec.topology, water_model(5.0));
    MachineSimulation a(field_a, machine::anton_with_torus(n, n, n),
                        spec.positions, spec.box, driver_config());
    MachineSimulation b(field_b, machine::anton_with_torus(n, n, n),
                        spec.positions, spec.box, driver_config());
    field_b.set_vdw_scale(0.9);
    check_every_step(a);
    check_every_step(b);
    sampling::HamiltonianReplicaExchange hremd({&a, &b}, 300.0, 4);
    hremd.run(kDriverSteps);
    EXPECT_EQ(hremd.stats().attempts[0], 2u);  // even pairs at rounds 0, 2
    finals.push_back({a.state(), b.state()});
  }
  expect_same_state(finals[0][0], finals[1][0]);
  expect_same_state(finals[0][1], finals[1][1]);
}

}  // namespace
}  // namespace antmd::runtime
