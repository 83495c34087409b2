// Tests for force kernels: bonded terms against analytic gradients,
// tabulated nonbonded pairs, soft-core potentials, restraints, virtual
// sites, and Newton's third law / momentum conservation invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ff/bonded.hpp"
#include "ff/forcefield.hpp"
#include "ff/nonbonded.hpp"
#include "ff/restraints.hpp"
#include "ff/vsites.hpp"
#include "math/rng.hpp"
#include "math/units.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"

namespace antmd {
namespace {

constexpr double kFdStep = 1e-5;

/// Numerical gradient check: returns analytic minus finite-difference force
/// on atom `atom`, component `dim`, for an energy functional.
template <typename EnergyFn>
double fd_force_error(EnergyFn energy, std::vector<Vec3>& pos, size_t atom,
                      int dim, double analytic_force) {
  Vec3 saved = pos[atom];
  pos[atom][dim] = saved[dim] + kFdStep;
  double ep = energy(pos);
  pos[atom][dim] = saved[dim] - kFdStep;
  double em = energy(pos);
  pos[atom] = saved;
  double fd = -(ep - em) / (2.0 * kFdStep);
  return analytic_force - fd;
}

TEST(Bonded, BondEnergyAndForce) {
  Box box = Box::cubic(50);
  std::vector<Bond> bonds = {{0, 1, 100.0, 1.5}};
  std::vector<Vec3> pos = {{0, 0, 0}, {2.0, 0, 0}};

  ForceResult out(2);
  ff::compute_bonds(bonds, pos, box, out);
  // U = 100 (2.0-1.5)^2 = 25
  EXPECT_NEAR(out.energy.bond.value(), 25.0, 1e-6);
  // dU/dr = 2*100*0.5 = 100 pulling atoms together.
  EXPECT_NEAR(out.forces.force(0).x, 100.0, 1e-5);
  EXPECT_NEAR(out.forces.force(1).x, -100.0, 1e-5);
  EXPECT_NEAR(out.forces.force(0).y, 0.0, 1e-9);
}

TEST(Bonded, BondForceMatchesFiniteDifference) {
  Box box = Box::cubic(50);
  std::vector<Bond> bonds = {{0, 1, 73.0, 1.2}};
  std::vector<Vec3> pos = {{1.0, 2.0, 3.0}, {1.9, 2.7, 2.6}};
  auto energy = [&](const std::vector<Vec3>& p) {
    ForceResult r(2);
    ff::compute_bonds(bonds, p, box, r);
    return r.energy.bond.value();
  };
  ForceResult out(2);
  ff::compute_bonds(bonds, pos, box, out);
  for (size_t a = 0; a < 2; ++a) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(fd_force_error(energy, pos, a, d, out.forces.force(a)[d]),
                  0.0, 1e-3);
    }
  }
}

TEST(Bonded, BondRespectsMinimumImage) {
  Box box = Box::cubic(10);
  std::vector<Bond> bonds = {{0, 1, 50.0, 1.0}};
  // Atoms on opposite faces: true separation is 1.0 through the boundary.
  std::vector<Vec3> pos = {{0.5, 5, 5}, {9.5, 5, 5}};
  ForceResult out(2);
  ff::compute_bonds(bonds, pos, box, out);
  EXPECT_NEAR(out.energy.bond.value(), 0.0, 1e-9);
}

TEST(Bonded, AngleEnergyAtEquilibriumIsZero) {
  Box box = Box::cubic(50);
  double theta0 = 109.47 * M_PI / 180.0;
  std::vector<Angle> angles = {{1, 0, 2, 55.0, theta0}};
  std::vector<Vec3> pos = {
      {0, 0, 0},
      {std::sin(theta0 / 2), 0, std::cos(theta0 / 2)},
      {-std::sin(theta0 / 2), 0, std::cos(theta0 / 2)}};
  ForceResult out(3);
  ff::compute_angles(angles, pos, box, out);
  EXPECT_NEAR(out.energy.angle.value(), 0.0, 1e-9);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(norm(out.forces.force(i)), 0.0, 1e-5);
  }
}

TEST(Bonded, AngleForceMatchesFiniteDifference) {
  Box box = Box::cubic(50);
  std::vector<Angle> angles = {{0, 1, 2, 40.0, 1.8}};
  std::vector<Vec3> pos = {{1.1, 0.2, -0.3}, {0, 0, 0}, {-0.4, 1.2, 0.5}};
  auto energy = [&](const std::vector<Vec3>& p) {
    ForceResult r(3);
    ff::compute_angles(angles, p, box, r);
    return r.energy.angle.value();
  };
  ForceResult out(3);
  ff::compute_angles(angles, pos, box, out);
  for (size_t a = 0; a < 3; ++a) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(fd_force_error(energy, pos, a, d, out.forces.force(a)[d]),
                  0.0, 2e-3);
    }
  }
}

TEST(Bonded, AngleForcesSumToZero) {
  Box box = Box::cubic(50);
  std::vector<Angle> angles = {{0, 1, 2, 40.0, 1.9}};
  std::vector<Vec3> pos = {{1.3, 0.1, 0}, {0, 0, 0}, {-0.2, 1.4, 0.7}};
  ForceResult out(3);
  ff::compute_angles(angles, pos, box, out);
  Vec3 total = out.forces.force(0) + out.forces.force(1) + out.forces.force(2);
  EXPECT_NEAR(norm(total), 0.0, 1e-6);
}

TEST(Bonded, DihedralAngleKnownGeometries) {
  Box box = Box::cubic(50);
  // cis (phi = 0)
  EXPECT_NEAR(ff::dihedral_angle({1, 1, 0}, {1, 0, 0}, {-1, 0, 0},
                                 {-1, 1, 0}, box),
              0.0, 1e-9);
  // trans (phi = pi)
  EXPECT_NEAR(std::abs(ff::dihedral_angle({1, 1, 0}, {1, 0, 0}, {-1, 0, 0},
                                          {-1, -1, 0}, box)),
              M_PI, 1e-9);
  // +90°
  EXPECT_NEAR(ff::dihedral_angle({1, 1, 0}, {1, 0, 0}, {-1, 0, 0},
                                 {-1, 0, 1}, box),
              M_PI / 2, 1e-9);
}

TEST(Bonded, DihedralForceMatchesFiniteDifference) {
  Box box = Box::cubic(50);
  std::vector<Dihedral> dihedrals = {{0, 1, 2, 3, 1.4, 3, 0.4}};
  std::vector<Vec3> pos = {
      {1.2, 1.0, 0.1}, {1.0, 0, 0}, {-1.0, 0.2, 0}, {-1.3, 1.0, 0.8}};
  auto energy = [&](const std::vector<Vec3>& p) {
    ForceResult r(4);
    ff::compute_dihedrals(dihedrals, p, box, r);
    return r.energy.dihedral.value();
  };
  ForceResult out(4);
  ff::compute_dihedrals(dihedrals, pos, box, out);
  for (size_t a = 0; a < 4; ++a) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(fd_force_error(energy, pos, a, d, out.forces.force(a)[d]),
                  0.0, 2e-3);
    }
  }
}

TEST(Bonded, DihedralForcesSumToZero) {
  Box box = Box::cubic(50);
  std::vector<Dihedral> dihedrals = {{0, 1, 2, 3, 2.0, 2, 1.0}};
  std::vector<Vec3> pos = {
      {1.2, 1.0, 0.1}, {1.0, 0, 0}, {-1.0, 0.2, 0}, {-1.3, 1.0, 0.8}};
  ForceResult out(4);
  ff::compute_dihedrals(dihedrals, pos, box, out);
  Vec3 total{};
  for (size_t i = 0; i < 4; ++i) total += out.forces.force(i);
  EXPECT_NEAR(norm(total), 0.0, 1e-6);
}

class PairTableFixture : public ::testing::Test {
 protected:
  PairTableFixture() {
    type_a_ = topo_.add_type("A", 3.4, 0.24);
    type_b_ = topo_.add_type("B", 3.0, 0.10);
    topo_.add_atom(type_a_, 40.0, 0.3);
    topo_.add_atom(type_b_, 40.0, -0.3);
    model_.cutoff = 9.0;
    model_.electrostatics = ff::Electrostatics::kEwaldReal;
    model_.ewald_beta = 0.35;
  }
  Topology topo_;
  uint32_t type_a_, type_b_;
  ff::NonbondedModel model_;
};

TEST_F(PairTableFixture, LorentzBerthelotCombination) {
  ff::PairTableSet tables(topo_, model_);
  // Cross pair: sigma = 3.2, eps = sqrt(0.024) — minimum at 2^(1/6) sigma.
  double sigma = 3.2;
  double eps = std::sqrt(0.24 * 0.10);
  double rmin = std::pow(2.0, 1.0 / 6.0) * sigma;
  auto eval = tables.vdw_table(type_a_, type_b_).evaluate(rmin * rmin);
  // Shifted potential: U(rmin) = -eps - U_shift, force ~ 0.
  EXPECT_NEAR(eval.force_over_r, 0.0, 1e-3);
  EXPECT_LT(eval.energy, -eps * 0.9);
}

TEST_F(PairTableFixture, PairForceMatchesAnalyticLJPlusEwald) {
  ff::PairTableSet tables(topo_, model_);
  std::vector<Vec3> pos = {{0, 0, 0}, {4.1, 0, 0}};
  Box box = Box::cubic(40);
  std::vector<ff::PairEntry> pairs = {{0, 1}};
  ForceResult out(2);
  ff::compute_pairs(pairs, tables, topo_.type_ids(), topo_.charges(), pos,
                    box, out);

  double r = 4.1, sigma = 3.2, eps = std::sqrt(0.024);
  double s6 = std::pow(sigma / r, 6);
  double f_lj = 4.0 * eps * (12.0 * s6 * s6 - 6.0 * s6) / r;
  double qq = -0.09;
  double beta = model_.ewald_beta;
  double f_coul = units::kCoulomb * qq *
                  (std::erfc(beta * r) / (r * r) +
                   2.0 * beta / std::sqrt(M_PI) * std::exp(-beta * beta * r *
                                                           r) / r);
  double f_total = f_lj + f_coul;
  EXPECT_NEAR(out.forces.force(0).x, -f_total, 5e-3 * std::abs(f_total) + 1e-4);
  EXPECT_NEAR(out.forces.force(1).x, f_total, 5e-3 * std::abs(f_total) + 1e-4);
}

TEST_F(PairTableFixture, PairsBeyondCutoffAreZero) {
  ff::PairTableSet tables(topo_, model_);
  std::vector<Vec3> pos = {{0, 0, 0}, {9.5, 0, 0}};
  Box box = Box::cubic(40);
  std::vector<ff::PairEntry> pairs = {{0, 1}};
  ForceResult out(2);
  ff::compute_pairs(pairs, tables, topo_.type_ids(), topo_.charges(), pos,
                    box, out);
  EXPECT_EQ(out.energy.vdw.value(), 0.0);
  EXPECT_EQ(norm(out.forces.force(0)), 0.0);
}

TEST_F(PairTableFixture, CustomTableOverridesLJ) {
  ff::PairTableSet tables(topo_, model_);
  // Replace A-B with a pure harmonic well centred at 5 Å.
  auto table = RadialTable::from_potential(
      [](double r) { return 2.0 * (r - 5.0) * (r - 5.0); },
      [](double r) { return 4.0 * (r - 5.0); }, 0.5, 9.0, 1024, false);
  tables.set_custom_table(type_a_, type_b_, std::move(table));
  EXPECT_TRUE(tables.is_custom(type_a_, type_b_));
  EXPECT_FALSE(tables.is_custom(type_a_, type_a_));

  std::vector<Vec3> pos = {{0, 0, 0}, {6.0, 0, 0}};
  Box box = Box::cubic(40);
  std::vector<ff::PairEntry> pairs = {{0, 1}};
  // Zero the charges so only the custom table acts.
  std::vector<double> charges = {0.0, 0.0};
  ForceResult out(2);
  ff::compute_pairs(pairs, tables, topo_.type_ids(), charges, pos, box, out);
  EXPECT_NEAR(out.energy.vdw.value(), 2.0, 1e-3);
  EXPECT_NEAR(out.forces.force(0).x, 4.0, 1e-2);  // pulled toward r=5
}

TEST_F(PairTableFixture, VdwScaleScalesEnergy) {
  ff::PairTableSet tables(topo_, model_);
  std::vector<Vec3> pos = {{0, 0, 0}, {3.8, 0, 0}};
  Box box = Box::cubic(40);
  std::vector<ff::PairEntry> pairs = {{0, 1}};
  std::vector<double> charges = {0.0, 0.0};
  ForceResult full(2), half(2);
  ff::compute_pairs(pairs, tables, topo_.type_ids(), charges, pos, box, full);
  ff::compute_pairs(pairs, tables, topo_.type_ids(), charges, pos, box, half,
                    0.5, 1.0);
  EXPECT_NEAR(half.energy.vdw.value(), 0.5 * full.energy.vdw.value(), 1e-9);
}

TEST(SoftCore, EndpointsMatchLJAndZero) {
  ff::NonbondedModel model;
  model.cutoff = 9.0;
  model.electrostatics = ff::Electrostatics::kNone;
  auto lj = ff::make_lj_table(3.4, 0.24, model);
  auto sc1 = ff::make_softcore_lj_table(3.4, 0.24, 1.0, 0.5, model);
  auto sc0 = ff::make_softcore_lj_table(3.4, 0.24, 0.0, 0.5, model);
  for (double r = 3.0; r < 8.5; r += 0.25) {
    EXPECT_NEAR(sc1.evaluate(r * r).energy, lj.evaluate(r * r).energy, 1e-4)
        << r;
    EXPECT_NEAR(sc0.evaluate(r * r).energy, 0.0, 1e-12) << r;
  }
}

TEST(SoftCore, FiniteAtContact) {
  ff::NonbondedModel model;
  model.cutoff = 9.0;
  model.table_inner = 0.3;
  auto sc = ff::make_softcore_lj_table(3.4, 0.24, 0.5, 0.5, model);
  auto eval = sc.evaluate(0.3 * 0.3);
  // Soft-core removes the r→0 singularity: energy stays modest.
  EXPECT_LT(std::abs(eval.energy), 50.0);
}

TEST(SoftCore, MonotoneInLambdaAtShortRange) {
  ff::NonbondedModel model;
  model.cutoff = 9.0;
  double prev = 0.0;
  for (double lambda : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    auto sc = ff::make_softcore_lj_table(3.4, 0.24, lambda, 0.5, model);
    double e = sc.evaluate(3.0 * 3.0).energy;  // repulsive region
    EXPECT_GE(e, prev - 1e-9) << lambda;
    prev = e;
  }
}

TEST(Restraints, PositionRestraintFlatBottom) {
  Box box = Box::cubic(30);
  std::vector<ff::PositionRestraint> r = {{0, Vec3{5, 5, 5}, 10.0, 1.0}};
  // Inside the flat region: no force.
  std::vector<Vec3> pos = {{5.5, 5, 5}};
  ForceResult out(1);
  ff::compute_position_restraints(r, pos, box, out);
  EXPECT_EQ(out.energy.restraint.value(), 0.0);
  EXPECT_EQ(norm(out.forces.force(0)), 0.0);
  // Outside: harmonic in the excess distance.
  pos[0] = {8, 5, 5};  // distance 3, excess 2
  out.reset(1);
  ff::compute_position_restraints(r, pos, box, out);
  EXPECT_NEAR(out.energy.restraint.value(), 40.0, 1e-6);
  EXPECT_NEAR(out.forces.force(0).x, -40.0, 1e-4);
}

TEST(Restraints, DistanceRestraintFlatRegion) {
  Box box = Box::cubic(30);
  std::vector<ff::DistanceRestraint> r = {{0, 1, 5.0, 4.0, 0.5}};
  std::vector<Vec3> pos = {{0, 0, 0}, {4.3, 0, 0}};  // within flat ±0.5
  ForceResult out(2);
  ff::compute_distance_restraints(r, pos, box, out);
  EXPECT_EQ(out.energy.restraint.value(), 0.0);
  pos[1] = {5.5, 0, 0};  // dev = 1.5, excess = 1.0
  out.reset(2);
  ff::compute_distance_restraints(r, pos, box, out);
  EXPECT_NEAR(out.energy.restraint.value(), 5.0, 1e-6);
}

TEST(Restraints, SteeredSpringMovesTarget) {
  Box box = Box::cubic(30);
  std::vector<ff::SteeredSpring> s = {{0, 1, 3.0, 4.0, 0.5}};
  std::vector<Vec3> pos = {{0, 0, 0}, {4.0, 0, 0}};
  ForceResult out(2);
  // At t=0 target is 4.0: no force.
  auto ext0 = ff::compute_steered_springs(s, pos, box, 0.0, out);
  EXPECT_NEAR(ext0[0], 0.0, 1e-12);
  EXPECT_NEAR(out.energy.restraint.value(), 0.0, 1e-9);
  // At t=2 target is 5.0: spring stretched by -1.
  out.reset(2);
  auto ext2 = ff::compute_steered_springs(s, pos, box, 2.0, out);
  EXPECT_NEAR(ext2[0], -1.0, 1e-12);
  EXPECT_NEAR(out.energy.restraint.value(), 3.0, 1e-6);
  // Force pushes the pair apart toward the target distance.
  EXPECT_LT(out.forces.force(0).x, 0.0);
  EXPECT_GT(out.forces.force(1).x, 0.0);
}

TEST(Restraints, ExternalFieldForcesByCharge) {
  std::vector<double> charges = {1.0, -2.0, 0.0};
  std::vector<Vec3> pos = {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}};
  ff::ExternalField field{Vec3{0, 0, 3.0}};
  ForceResult out(3);
  const std::vector<uint32_t> atoms = {0, 1, 2};
  ff::compute_external_field(field, charges, pos, atoms, out);
  EXPECT_NEAR(out.forces.force(0).z, 3.0, 1e-6);
  EXPECT_NEAR(out.forces.force(1).z, -6.0, 1e-6);
  EXPECT_EQ(norm(out.forces.force(2)), 0.0);
}

TEST(VirtualSites, ConstructionLinear2) {
  Box box = Box::cubic(30);
  VirtualSite v;
  v.site = 2;
  v.parents[0] = 0;
  v.parents[1] = 1;
  v.kind = VirtualSite::Kind::kLinear2;
  v.a = 0.25;
  std::vector<Vec3> pos = {{1, 1, 1}, {5, 1, 1}, {0, 0, 0}};
  ff::construct_virtual_sites(std::vector<VirtualSite>{v}, pos, box);
  EXPECT_NEAR(pos[2].x, 2.0, 1e-12);
  EXPECT_NEAR(pos[2].y, 1.0, 1e-12);
}

TEST(VirtualSites, ForceSpreadingConservesTotal) {
  Box box = Box::cubic(30);
  VirtualSite v;
  v.site = 3;
  v.parents[0] = 0;
  v.parents[1] = 1;
  v.parents[2] = 2;
  v.kind = VirtualSite::Kind::kPlanar3;
  v.a = 0.128;
  v.b = 0.128;
  std::vector<Vec3> pos = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0.2, 0.2, 0}};
  FixedForceArray forces(4);
  forces.add(3, Vec3{10.0, -4.0, 2.5});
  auto before = forces.quanta(3);
  ff::spread_virtual_site_forces(std::vector<VirtualSite>{v}, pos, box,
                                 forces);
  // Site force cleared, total conserved exactly in quanta.
  auto site_after = forces.quanta(3);
  EXPECT_EQ(site_after[0], 0);
  std::array<int64_t, 3> total{0, 0, 0};
  for (size_t i = 0; i < 3; ++i) {
    auto q = forces.quanta(i);
    total[0] += q[0]; total[1] += q[1]; total[2] += q[2];
  }
  EXPECT_EQ(total, before);
}

TEST(VirtualSites, TorqueFreeForCentralForce) {
  // A force along the line from the site toward a distant attractor should
  // produce the same net force after spreading (momentum) — checked above —
  // and parents must receive weights (1-a-b, a, b).
  Box box = Box::cubic(30);
  VirtualSite v;
  v.site = 2;
  v.parents[0] = 0;
  v.parents[1] = 1;
  v.kind = VirtualSite::Kind::kLinear2;
  v.a = 0.3;
  std::vector<Vec3> pos = {{0, 0, 0}, {1, 0, 0}, {0.3, 0, 0}};
  FixedForceArray forces(3);
  forces.add(2, Vec3{1.0, 0, 0});
  ff::spread_virtual_site_forces(std::vector<VirtualSite>{v}, pos, box,
                                 forces);
  EXPECT_NEAR(forces.force(0).x, 0.7, 1e-5);
  EXPECT_NEAR(forces.force(1).x, 0.3, 1e-5);
}

TEST(ForceField, FullEvaluationOnWaterRunsAndIsFinite) {
  auto spec = build_water_box(27, WaterModel::kFlexible3Site);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kEwaldReal;
  ForceField field(spec.topology, model);

  // Build a naive all-pairs list within cutoff.
  std::vector<ff::PairEntry> pairs;
  for (uint32_t i = 0; i < spec.topology.atom_count(); ++i) {
    for (uint32_t j = i + 1; j < spec.topology.atom_count(); ++j) {
      if (spec.topology.is_excluded(i, j)) continue;
      if (spec.box.distance2(spec.positions[i], spec.positions[j]) <
          model.cutoff * model.cutoff) {
        pairs.push_back({i, j});
      }
    }
  }
  // The full evaluation, term by term (flexible water has no virtual
  // sites to construct or spread).
  ForceResult out(spec.topology.atom_count());
  field.compute_bonded_terms(field.bonded_terms(), spec.positions, spec.box,
                             0.0, out);
  field.compute_nonbonded(pairs, spec.positions, spec.box, out);
  field.compute_kspace(spec.positions, spec.box, out);
  EXPECT_TRUE(std::isfinite(out.energy.total()));
  // Neutral system at liquid density: electrostatics should be cohesive.
  EXPECT_LT(out.energy.coulomb_real.value() +
                out.energy.coulomb_kspace.value() +
                out.energy.coulomb_self.value(),
            0.0);
  // Forces finite everywhere.
  for (size_t i = 0; i < spec.topology.atom_count(); ++i) {
    EXPECT_TRUE(std::isfinite(norm(out.forces.force(i))));
  }
}

TEST(ForceField, SteeredSpringRegistry) {
  auto spec = build_dimer_in_solvent(64, 5.0);
  ff::NonbondedModel model;
  model.cutoff = 8.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  size_t idx = field.add_steered_spring(
      {spec.tagged[0], spec.tagged[1], 2.0, 5.0, 0.1});
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(field.steered_springs().size(), 1u);
  EXPECT_THROW(field.add_steered_spring({9999, 0, 1.0, 1.0, 0.0}), Error);
}

}  // namespace
}  // namespace antmd
