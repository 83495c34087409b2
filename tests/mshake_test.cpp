// Tests for the M-SHAKE (per-cluster Newton) constraint solver and its
// ablation against classic SHAKE sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "ff/forcefield.hpp"
#include "math/rng.hpp"
#include "md/constraints.hpp"
#include "md/simulation.hpp"
#include "topo/builders.hpp"

namespace antmd::md {
namespace {

TEST(MShake, RestoresWaterGeometry) {
  auto spec = build_water_box(27, WaterModel::kRigid3Site);
  ConstraintSolver solver(spec.topology, 1e-10, 100,
                          ConstraintAlgorithm::kMShake);
  auto before = spec.positions;
  auto perturbed = spec.positions;
  SequentialRng rng(5);
  for (auto& p : perturbed) {
    p += Vec3{rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08),
              rng.uniform(-0.08, 0.08)};
  }
  std::vector<Vec3> velocities(perturbed.size(), Vec3{});
  auto stats = solver.apply_positions(before, perturbed, velocities, 0.0,
                                      spec.box);
  EXPECT_LT(stats.max_violation, 1e-9);
}

TEST(MShake, ConvergesInFewerIterationsThanShake) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  auto before = spec.positions;
  auto perturbed = spec.positions;
  SequentialRng rng(7);
  for (auto& p : perturbed) {
    p += Vec3{rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
              rng.uniform(-0.05, 0.05)};
  }
  std::vector<Vec3> v1(perturbed.size(), Vec3{});
  std::vector<Vec3> v2(perturbed.size(), Vec3{});

  ConstraintSolver shake(spec.topology, 1e-10, 500,
                         ConstraintAlgorithm::kShake);
  ConstraintSolver mshake(spec.topology, 1e-10, 500,
                          ConstraintAlgorithm::kMShake);
  auto p1 = perturbed;
  auto p2 = perturbed;
  auto s1 = shake.apply_positions(before, p1, v1, 0.0, spec.box);
  auto s2 = mshake.apply_positions(before, p2, v2, 0.0, spec.box);
  // Both converge...
  EXPECT_LT(s1.max_violation, 1e-9);
  EXPECT_LT(s2.max_violation, 1e-9);
  // ...but Newton needs fewer sweeps at tight tolerance.
  EXPECT_LT(s2.iterations, s1.iterations);
}

TEST(MShake, VelocityImpulseMatchesShakeDirection) {
  auto spec = build_water_box(8, WaterModel::kRigid3Site);
  auto before = spec.positions;
  auto perturbed = spec.positions;
  for (auto& p : perturbed) p += Vec3{0.03, -0.02, 0.01};
  perturbed[1] += Vec3{0.05, 0.05, 0.0};  // strain one molecule

  std::vector<Vec3> v_shake(perturbed.size(), Vec3{});
  std::vector<Vec3> v_mshake(perturbed.size(), Vec3{});
  double dt = 0.05;
  ConstraintSolver shake(spec.topology, 1e-10, 500,
                         ConstraintAlgorithm::kShake);
  ConstraintSolver mshake(spec.topology, 1e-10, 500,
                          ConstraintAlgorithm::kMShake);
  auto p1 = perturbed;
  auto p2 = perturbed;
  shake.apply_positions(before, p1, v_shake, dt, spec.box);
  mshake.apply_positions(before, p2, v_mshake, dt, spec.box);
  // Same constraints, same reference: final positions agree closely.
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_NEAR(norm(p1[i] - p2[i]), 0.0, 1e-6) << i;
    EXPECT_NEAR(norm(v_shake[i] - v_mshake[i]), 0.0, 1e-4) << i;
  }
}

TEST(MShake, DrivesStableDynamics) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  ff::NonbondedModel model;
  model.cutoff = 5.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  model.ewald_beta = 0.45;
  ForceField field(spec.topology, model);
  SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 250.0;
  cfg.thermostat.kind = ThermostatKind::kNone;
  cfg.com_removal_interval = 0;
  cfg.constraint_algorithm = ConstraintAlgorithm::kMShake;
  Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(150);
  ConstraintSolver check(spec.topology);
  EXPECT_LT(check.max_violation(sim.state().positions, sim.state().box),
            1e-6);
  EXPECT_TRUE(std::isfinite(sim.potential_energy()));
}

// One constraint cluster of the mixed-topology test: its atoms (masses and
// ideal positions) and its constraints, indexed from 0.
struct ClusterPiece {
  std::vector<double> masses;
  std::vector<Vec3> positions;
  std::vector<DistanceConstraint> constraints;
};

ClusterPiece rigid_water(Vec3 o) {
  const double oh = 1.0;
  const double hh = 2.0 * oh * std::sin(0.5 * 1.9106);
  return {{15.999, 1.008, 1.008},
          {o, o + Vec3{oh, 0.0, 0.0},
           o + Vec3{oh * std::cos(1.9106), oh * std::sin(1.9106), 0.0}},
          {{0, 1, oh}, {0, 2, oh}, {1, 2, hh}}};
}

// A zig-zag chain of `atoms` atoms held by atoms-1 bond constraints.
ClusterPiece constrained_chain(Vec3 start, uint32_t atoms) {
  ClusterPiece c;
  for (uint32_t a = 0; a < atoms; ++a) {
    c.masses.push_back(12.011);
    c.positions.push_back(start + Vec3{1.2 * a, a % 2 == 0 ? 0.0 : 0.8, 0.0});
    if (a > 0) c.constraints.push_back({a - 1, a, std::sqrt(1.44 + 0.64)});
  }
  return c;
}

// Concatenates pieces into one topology and one position vector.
Topology topology_of(const std::vector<ClusterPiece>& pieces,
                     std::vector<Vec3>& positions) {
  Topology topo;
  const uint32_t type = topo.add_type("X", 3.0, 0.1);
  positions.clear();
  for (const ClusterPiece& p : pieces) {
    const auto base = static_cast<uint32_t>(topo.atom_count());
    for (size_t a = 0; a < p.masses.size(); ++a) {
      topo.add_atom(type, p.masses[a], 0.0);
      positions.push_back(p.positions[a]);
    }
    for (const auto& c : p.constraints) {
      topo.add_constraint(base + c.i, base + c.j, c.r0);
    }
  }
  return topo;
}

// Perturbs every atom deterministically, as one unconstrained update would.
std::vector<Vec3> perturbed(const std::vector<Vec3>& before) {
  std::vector<Vec3> out = before;
  for (size_t i = 0; i < out.size(); ++i) {
    const double k = static_cast<double>(i);
    out[i] += Vec3{0.04 * std::sin(1.3 * k), 0.05 * std::cos(0.7 * k),
                   -0.03 * std::sin(2.1 * k + 0.4)};
  }
  return out;
}

// M-SHAKE solves each cluster on its own — densely up to 12 constraints,
// with SHAKE sweeps above — so a cluster's result does not depend on the
// other clusters of the topology, and the sweep count is the sum over
// clusters.
TEST(MShake, EveryClusterEndsAsIfSolvedAlone) {
  const Box box = Box::cubic(40.0);
  const std::vector<ClusterPiece> pieces = {
      rigid_water({2.0, 2.0, 2.0}), constrained_chain({2.0, 12.0, 2.0}, 15),
      rigid_water({8.0, 24.0, 8.0})};
  ASSERT_GT(pieces[1].constraints.size(), 12u);
  const double dt = 0.05;

  std::vector<Vec3> before;
  const Topology mixed = topology_of(pieces, before);
  ConstraintSolver solver(mixed, 1e-10, 500, ConstraintAlgorithm::kMShake);
  const std::vector<Vec3> start = perturbed(before);
  std::vector<Vec3> pos = start;
  std::vector<Vec3> vel(pos.size(), Vec3{});
  const ConstraintStats stats =
      solver.apply_positions(before, pos, vel, dt, box);

  size_t iterations = 0;
  size_t offset = 0;
  for (const ClusterPiece& piece : pieces) {
    std::vector<Vec3> alone_before;
    const Topology alone = topology_of({piece}, alone_before);
    const ConstraintAlgorithm algorithm = piece.constraints.size() > 12
                                              ? ConstraintAlgorithm::kShake
                                              : ConstraintAlgorithm::kMShake;
    ConstraintSolver alone_solver(alone, 1e-10, 500, algorithm);
    const auto first = start.begin() + static_cast<std::ptrdiff_t>(offset);
    std::vector<Vec3> alone_pos(
        first, first + static_cast<std::ptrdiff_t>(alone_before.size()));
    std::vector<Vec3> alone_vel(alone_pos.size(), Vec3{});
    iterations += alone_solver
                      .apply_positions(alone_before, alone_pos, alone_vel, dt,
                                       box)
                      .iterations;
    for (size_t a = 0; a < alone_pos.size(); ++a) {
      EXPECT_EQ(pos[offset + a], alone_pos[a]) << "atom " << offset + a;
      EXPECT_EQ(vel[offset + a], alone_vel[a]) << "atom " << offset + a;
    }
    offset += alone_pos.size();
  }
  EXPECT_EQ(stats.iterations, iterations);
  EXPECT_LT(stats.max_violation, 1e-9);
}

}  // namespace
}  // namespace antmd::md
