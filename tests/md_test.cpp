// Tests for the MD engine: neighbor lists, constraints, thermostats,
// barostats, and integration-level invariants (energy conservation,
// temperature control, constraint maintenance).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "ff/forcefield.hpp"
#include "obs/metrics.hpp"
#include "math/units.hpp"
#include "md/constraints.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "md/state.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"

namespace antmd {
namespace {

using md::NeighborList;
using md::Simulation;
using md::SimulationConfig;

TEST(NeighborListTest, FindsExactlyTheBrutForcePairs) {
  auto spec = build_lj_fluid(216, 0.021, 3);
  double cutoff = 8.0, skin = 1.0;
  NeighborList list(spec.topology, cutoff, skin);
  list.build(spec.positions, spec.box);

  std::set<std::pair<uint32_t, uint32_t>> brute;
  double reach2 = (cutoff + skin) * (cutoff + skin);
  for (uint32_t i = 0; i < 216; ++i) {
    for (uint32_t j = i + 1; j < 216; ++j) {
      if (spec.box.distance2(spec.positions[i], spec.positions[j]) < reach2) {
        brute.insert({i, j});
      }
    }
  }
  std::set<std::pair<uint32_t, uint32_t>> found;
  for (const auto& p : list.pairs()) found.insert({p.i, p.j});
  EXPECT_EQ(found, brute);
}

TEST(NeighborListTest, PairsAreSortedAndUnique) {
  auto spec = build_lj_fluid(343, 0.021, 5);
  NeighborList list(spec.topology, 8.0, 1.5);
  list.build(spec.positions, spec.box);
  const auto& pairs = list.pairs();
  for (size_t k = 0; k + 1 < pairs.size(); ++k) {
    bool ordered = pairs[k].i < pairs[k + 1].i ||
                   (pairs[k].i == pairs[k + 1].i &&
                    pairs[k].j < pairs[k + 1].j);
    EXPECT_TRUE(ordered) << k;
  }
  for (const auto& p : pairs) EXPECT_LT(p.i, p.j);
}

TEST(NeighborListTest, RespectsExclusions) {
  auto spec = build_water_box(125, WaterModel::kRigid3Site);
  NeighborList list(spec.topology, 6.0, 1.0);
  list.build(spec.positions, spec.box);
  for (const auto& p : list.pairs()) {
    EXPECT_FALSE(spec.topology.is_excluded(p.i, p.j));
  }
}

TEST(NeighborListTest, SkinDelaysRebuild) {
  auto spec = build_lj_fluid(125, 0.021, 7);
  NeighborList list(spec.topology, 7.0, 2.0);
  list.build(spec.positions, spec.box);
  EXPECT_EQ(list.build_count(), 1u);

  // Tiny displacements: no rebuild.
  auto moved = spec.positions;
  for (auto& p : moved) p += Vec3{0.1, 0.0, 0.0};
  EXPECT_FALSE(list.update(moved, spec.box));
  EXPECT_EQ(list.build_count(), 1u);

  // Move one atom beyond skin/2.
  moved[3] += Vec3{1.5, 0, 0};
  EXPECT_TRUE(list.update(moved, spec.box));
  EXPECT_EQ(list.build_count(), 2u);
}

// Regression for the skin-check fast path: the raw-displacement early-out
// plus hot-atom cache must leave the rebuild DECISION identical to the
// plain exact half-skin loop, while the md.neighbor.* counters show the
// checks actually ran through the new path.
TEST(NeighborListTest, SkinCheckEarlyOutKeepsRebuildDecision) {
  obs::ScopedTelemetry telemetry(true);
  auto& checks =
      obs::MetricsRegistry::global().counter("md.neighbor.skin_check.count");
  auto& hot_hits =
      obs::MetricsRegistry::global().counter("md.neighbor.skin_check.hot_hit");
  auto& rebuilds =
      obs::MetricsRegistry::global().counter("md.neighbor.rebuild.count");

  auto spec = build_lj_fluid(125, 0.021, 7);
  const double skin = 2.0;
  NeighborList list(spec.topology, 7.0, skin);
  list.build(spec.positions, spec.box);

  const uint64_t checks0 = checks.value();
  const uint64_t rebuilds0 = rebuilds.value();

  // Drift atoms with a seeded walk; shadow the decision with the exact
  // min-image half-skin test against our own copy of the reference frame.
  SequentialRng rng(41);
  auto pos = spec.positions;
  auto ref = pos;
  const double limit2 = 0.25 * skin * skin;
  uint64_t expected_rebuilds = 0;
  for (int step = 0; step < 60; ++step) {
    for (auto& p : pos) {
      p += Vec3{rng.uniform(-0.12, 0.12), rng.uniform(-0.12, 0.12),
                rng.uniform(-0.12, 0.12)};
    }
    bool expected = false;
    for (size_t i = 0; i < pos.size(); ++i) {
      if (spec.box.distance2(pos[i], ref[i]) > limit2) {
        expected = true;
        break;
      }
    }
    EXPECT_EQ(list.update(pos, spec.box), expected) << "step " << step;
    if (expected) {
      ref = pos;
      ++expected_rebuilds;
    }
  }
  EXPECT_GT(expected_rebuilds, 0u) << "walk never tripped the skin";
  EXPECT_EQ(rebuilds.value() - rebuilds0, expected_rebuilds);
  EXPECT_EQ(checks.value() - checks0, 60u);

  // The atom that trips the check keeps drifting, so consecutive positive
  // checks on the same atom go through the O(1) hot-atom cache.
  const uint64_t hot0 = hot_hits.value();
  for (int k = 0; k < 4; ++k) {
    pos[3] += Vec3{1.5, 0, 0};
    EXPECT_TRUE(list.update(pos, spec.box));
  }
  EXPECT_GE(hot_hits.value() - hot0, 3u);
}

// The blocked cluster-pair list is a re-layout of the flat pair list: the
// tile masks must decode to EXACTLY the same {i, j} set, padding slots must
// never carry mask bits, and the bookkeeping (real_pairs, fill ratio,
// shift codes) must be consistent.
TEST(NeighborListTest, ClusterTilesEncodeExactlyTheFlatPairs) {
  auto spec = build_lj_fluid(343, 0.021, 5);
  NeighborList list(spec.topology, 8.0, 1.5, /*cluster_mode=*/true);
  list.build(spec.positions, spec.box);
  const auto& cl = list.clusters();

  ASSERT_EQ(cl.atoms.size(), cl.cluster_count() * cl.width);
  ASSERT_EQ(cl.slot_types.size(), cl.atoms.size());
  ASSERT_EQ(cl.slot_charges.size(), cl.atoms.size());

  std::set<std::pair<uint32_t, uint32_t>> flat;
  for (const auto& p : list.pairs()) flat.insert({p.i, p.j});

  std::set<std::pair<uint32_t, uint32_t>> decoded;
  size_t bits_total = 0;
  for (const auto& e : cl.entries) {
    // The i-side slot base never exceeds the j-group's last slot (the lower
    // slot of each pair takes the i side).
    ASSERT_LE(e.ci * cl.width, e.cj * ff::kClusterJWidth + 3);
    ASSERT_LT(e.shift, 27) << "shift code out of range";
    for (uint64_t m = e.mask; m != 0; m &= m - 1) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(m));
      const uint32_t i = cl.atoms[e.ci * cl.width + (bit >> 2)];
      const uint32_t j = cl.atoms[e.cj * ff::kClusterJWidth + (bit & 3)];
      ASSERT_NE(i, ff::kPadAtom) << "mask bit touches a padding slot";
      ASSERT_NE(j, ff::kPadAtom) << "mask bit touches a padding slot";
      decoded.insert({std::min(i, j), std::max(i, j)});
      ++bits_total;
    }
  }
  EXPECT_EQ(decoded, flat);
  EXPECT_EQ(bits_total, flat.size()) << "a pair appears in two tiles";
  EXPECT_EQ(cl.real_pairs, flat.size());
  EXPECT_GT(cl.fill_ratio(), 0.0);
  EXPECT_LE(cl.fill_ratio(), 1.0);
}

TEST(NeighborListTest, RejectsCutoffLargerThanHalfBox) {
  auto spec = build_lj_fluid(27, 0.021, 1);
  NeighborList list(spec.topology, spec.box.min_edge(), 1.0);
  EXPECT_THROW(list.build(spec.positions, spec.box), Error);
}

TEST(Constraints, ShakeRestoresBondLengths) {
  auto spec = build_water_box(8, WaterModel::kRigid3Site);
  md::ConstraintSolver solver(spec.topology);
  EXPECT_FALSE(solver.empty());

  // Perturb all positions, then project back.
  auto before = spec.positions;
  auto perturbed = spec.positions;
  SequentialRng rng(3);
  for (auto& p : perturbed) {
    p += Vec3{rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
              rng.uniform(-0.05, 0.05)};
  }
  std::vector<Vec3> velocities(perturbed.size(), Vec3{});
  auto stats = solver.apply_positions(before, perturbed, velocities, 0.0,
                                      spec.box);
  EXPECT_LT(stats.max_violation, 1e-7);
  EXPECT_LT(solver.max_violation(perturbed, spec.box), 1e-7);
}

TEST(Constraints, RattleRemovesRelativeVelocity) {
  auto spec = build_water_box(8, WaterModel::kRigid3Site);
  md::ConstraintSolver solver(spec.topology);
  std::vector<Vec3> velocities(spec.positions.size());
  SequentialRng rng(9);
  for (auto& v : velocities) {
    v = Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  solver.apply_velocities(spec.positions, velocities, spec.box);
  for (const auto& c : spec.topology.constraints()) {
    Vec3 d = spec.box.min_image(spec.positions[c.i], spec.positions[c.j]);
    Vec3 dv = velocities[c.i] - velocities[c.j];
    EXPECT_NEAR(dot(d, dv), 0.0, 1e-6);
  }
}

TEST(StateTest, InitVelocitiesHitTargetTemperature) {
  auto spec = build_lj_fluid(216, 0.021, 11);
  State state;
  state.positions = spec.positions;
  state.box = spec.box;
  md::init_velocities(spec.topology, 250.0, 42, state);
  EXPECT_NEAR(md::temperature(spec.topology, state), 250.0, 1e-9);
  // COM momentum is zero.
  Vec3 p{};
  for (size_t i = 0; i < 216; ++i) {
    p += spec.topology.masses()[i] * state.velocities[i];
  }
  EXPECT_NEAR(norm(p), 0.0, 1e-9);
}

TEST(StateTest, InitVelocitiesDeterministicInSeed) {
  auto spec = build_lj_fluid(64, 0.021, 2);
  State a, b;
  a.positions = b.positions = spec.positions;
  a.box = b.box = spec.box;
  md::init_velocities(spec.topology, 300.0, 7, a);
  md::init_velocities(spec.topology, 300.0, 7, b);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.velocities[i], b.velocities[i]);
  }
}

SimulationConfig nve_config(double dt_fs = 2.0) {
  SimulationConfig cfg;
  cfg.dt_fs = dt_fs;
  cfg.neighbor_skin = 1.0;
  cfg.thermostat.kind = md::ThermostatKind::kNone;
  cfg.init_temperature_k = 120.0;
  cfg.com_removal_interval = 0;
  return cfg;
}

TEST(SimulationTest, LjFluidNveConservesEnergy) {
  auto spec = build_lj_fluid(125, 0.021, 4);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  Simulation sim(field, spec.positions, spec.box, nve_config(4.0));

  sim.run(50);  // settle the lattice
  double e0 = sim.potential_energy() + sim.kinetic_energy();
  sim.run(300);
  double e1 = sim.potential_energy() + sim.kinetic_energy();
  double scale = std::abs(sim.kinetic_energy()) + 1.0;
  EXPECT_NEAR(e1, e0, 0.02 * scale) << "NVE drift too large";
}

TEST(SimulationTest, FlexibleWaterNveIsStableWithSmallTimestep) {
  auto spec = build_water_box(125, WaterModel::kFlexible3Site);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.45;
  ForceField field(spec.topology, model);
  auto cfg = nve_config(0.5);  // flexible OH needs a small dt
  cfg.init_temperature_k = 150.0;
  Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(30);
  double e0 = sim.potential_energy() + sim.kinetic_energy();
  sim.run(200);
  double e1 = sim.potential_energy() + sim.kinetic_energy();
  EXPECT_TRUE(std::isfinite(e1));
  EXPECT_NEAR(e1, e0, 0.03 * (std::abs(e0) + 10.0));
}

TEST(SimulationTest, RigidWaterKeepsConstraintsUnderDynamics) {
  auto spec = build_water_box(125, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.45;
  ForceField field(spec.topology, model);
  auto cfg = nve_config(2.0);
  cfg.init_temperature_k = 250.0;
  Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(100);
  md::ConstraintSolver check(spec.topology);
  EXPECT_LT(check.max_violation(sim.state().positions, sim.state().box),
            1e-6);
}

TEST(SimulationTest, BerendsenDrivesTemperatureToTarget) {
  auto spec = build_lj_fluid(125, 0.021, 8);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  SimulationConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 50.0;
  cfg.thermostat.kind = md::ThermostatKind::kBerendsen;
  cfg.thermostat.temperature_k = 180.0;
  cfg.thermostat.tau_fs = 200.0;
  Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(600);
  // Average over a window to smooth fluctuations.
  double t_sum = 0;
  const int window = 100;
  for (int i = 0; i < window; ++i) {
    sim.step();
    t_sum += sim.temperature();
  }
  EXPECT_NEAR(t_sum / window, 180.0, 30.0);
}

TEST(SimulationTest, LangevinSamplesCanonicalTemperature) {
  auto spec = build_lj_fluid(125, 0.021, 13);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  SimulationConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 300.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 140.0;
  cfg.thermostat.gamma_per_ps = 5.0;
  Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(500);
  double t_sum = 0;
  const int window = 200;
  for (int i = 0; i < window; ++i) {
    sim.step();
    t_sum += sim.temperature();
  }
  EXPECT_NEAR(t_sum / window, 140.0, 20.0);
}

TEST(SimulationTest, NoseHooverConservesExtendedEnergy) {
  auto spec = build_lj_fluid(64, 0.021, 17);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 120.0;
  cfg.com_removal_interval = 0;
  cfg.thermostat.kind = md::ThermostatKind::kNoseHoover;
  cfg.thermostat.temperature_k = 120.0;
  cfg.thermostat.tau_fs = 100.0;
  Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(50);
  double c0 = sim.conserved_quantity();
  sim.run(400);
  double c1 = sim.conserved_quantity();
  EXPECT_NEAR(c1, c0, 0.05 * (std::abs(c0) + 10.0));
}

TEST(SimulationTest, KspaceIntervalCachingStaysStable) {
  auto spec = build_water_box(125, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.45;
  ForceField field(spec.topology, model);
  auto cfg = nve_config(2.0);
  cfg.kspace_interval = 4;  // RESPA-style slow-force reuse
  cfg.init_temperature_k = 200.0;
  Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(200);
  EXPECT_TRUE(std::isfinite(sim.potential_energy()));
  EXPECT_LT(sim.temperature(), 2000.0);  // no blow-up
}

TEST(SimulationTest, MonteCarloBarostatEquilibratesPressure) {
  auto spec = build_lj_fluid(125, 0.030, 23);  // compressed start
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  SimulationConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 130.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 130.0;
  cfg.thermostat.gamma_per_ps = 5.0;
  cfg.barostat.kind = md::BarostatKind::kMonteCarlo;
  cfg.barostat.pressure_atm = 1.0;
  cfg.barostat.interval = 20;
  cfg.barostat.temperature_k = 130.0;
  Simulation sim(field, spec.positions, spec.box, cfg);
  double v0 = sim.state().box.volume();
  sim.run(400);
  double v1 = sim.state().box.volume();
  // Compressed liquid under 1 atm should expand.
  EXPECT_GT(v1, v0 * 1.01);
  EXPECT_TRUE(std::isfinite(sim.potential_energy()));
}

TEST(SimulationTest, VirtualSiteWaterRunsStably) {
  auto spec = build_water_box(64, WaterModel::kRigid4Site);
  ff::NonbondedModel model;
  model.cutoff = 5.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.45;
  ForceField field(spec.topology, model);
  auto cfg = nve_config(2.0);
  cfg.init_temperature_k = 150.0;
  Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(100);
  EXPECT_TRUE(std::isfinite(sim.potential_energy()));
  // M sites remain where construction puts them: 0.15 Å from O.
  const auto& pos = sim.state().positions;
  for (const auto& v : spec.topology.virtual_sites()) {
    double d = norm(sim.state().box.min_image(pos[v.site],
                                              pos[v.parents[0]]));
    EXPECT_NEAR(d, 0.15, 0.02);
  }
}

// The trial-state evaluator runs the step's force graph on a flat,
// skin-free list, so its energy equals the one the Simulation reports from
// its cluster tiles, bit for bit: at the start and after some dynamics, on
// an LJ fluid and on rigid4 GSE water (virtual sites plus k-space).
TEST(SimulationTest, PotentialEnergyMatchesCurrentEnergy) {
  auto lj = build_lj_fluid(64, 0.021, 29);
  ff::NonbondedModel lj_model;
  lj_model.cutoff = 6.0;
  lj_model.electrostatics = ff::Electrostatics::kNone;

  auto water = build_water_box(216, WaterModel::kRigid4Site, 5);
  ff::NonbondedModel water_model;
  water_model.cutoff = 6.0;
  water_model.electrostatics = ff::Electrostatics::kEwaldReal;
  water_model.ewald_beta = 0.4;

  for (auto [spec, model] : {std::pair{&lj, lj_model},
                             std::pair{&water, water_model}}) {
    SCOPED_TRACE(testing::Message() << spec->topology.atom_count()
                                    << " atoms");
    ForceField field(spec->topology, model);
    Simulation sim(field, spec->positions, spec->box, nve_config(1.0));
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(md::potential_energy(field, sim.state().positions,
                                     sim.state().box, sim.state().time),
                sim.potential_energy())
          << "after " << round * 10 << " steps";
      sim.run(10);
    }
  }
}

// The trial-state evaluator (MC barostat, H-REMD, FEP) must honor the
// charge-product scale on any box: a field at scale s has to match a field
// whose charges are scaled by √s, on the current box and on a 1.01× trial
// box.
TEST(SimulationTest, TrialBoxEnergyHonorsChargeScaling) {
  auto spec = build_water_box(125, WaterModel::kRigid3Site, 3);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.4;
  ForceField field(spec.topology, model);
  field.set_charge_product_scale(0.5);

  Topology scaled = spec.topology;
  for (double& q : scaled.mutable_charges()) q *= std::sqrt(0.5);
  ForceField reference(scaled, model);

  const Vec3 e = spec.box.edges();
  const Box trial(1.01 * e.x, 1.01 * e.y, 1.01 * e.z);
  for (const Box& box : {spec.box, trial}) {
    const double want = md::potential_energy(reference, spec.positions, box);
    EXPECT_NEAR(md::potential_energy(field, spec.positions, box), want,
                1e-9 * std::abs(want))
        << "box edge " << box.edges().x;
  }
}

TEST(SimulationTest, SteeredSpringDoesWorkOnDimer) {
  auto spec = build_dimer_in_solvent(125, 5.0, 31);
  ff::NonbondedModel model;
  model.cutoff = 8.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  // Pull the dimer apart at 0.01 Å per internal time unit.
  field.add_steered_spring({spec.tagged[0], spec.tagged[1], 10.0, 5.0, 0.05});
  SimulationConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 120.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 120.0;
  Simulation sim(field, spec.positions, spec.box, cfg);
  double d0 = norm(sim.state().box.min_image(
      sim.state().positions[spec.tagged[0]],
      sim.state().positions[spec.tagged[1]]));
  sim.run(500);
  double d1 = norm(sim.state().box.min_image(
      sim.state().positions[spec.tagged[0]],
      sim.state().positions[spec.tagged[1]]));
  EXPECT_GT(d1, d0 + 0.5);  // the moving anchor dragged them apart
}

}  // namespace
}  // namespace antmd
