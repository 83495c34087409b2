// Tests for the extended functional forms and supporting machinery:
// Morse bonds, Urey–Bradley, harmonic impropers, dihedral biasing, torsion
// metadynamics, transport analysis, and the run-config parser.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/transport.hpp"
#include "ff/bias.hpp"
#include "ff/bonded.hpp"
#include "ff/forcefield.hpp"
#include "io/config.hpp"
#include "math/rng.hpp"
#include "md/simulation.hpp"
#include "sampling/torsion_meta.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"

namespace antmd {
namespace {

constexpr double kFd = 1e-5;

template <typename EnergyFn>
void expect_gradients_match(EnergyFn energy, std::vector<Vec3>& pos,
                            const FixedForceArray& forces, double tol) {
  for (size_t a = 0; a < pos.size(); ++a) {
    for (int d = 0; d < 3; ++d) {
      Vec3 saved = pos[a];
      pos[a][d] = saved[d] + kFd;
      double ep = energy(pos);
      pos[a][d] = saved[d] - kFd;
      double em = energy(pos);
      pos[a] = saved;
      double fd = -(ep - em) / (2 * kFd);
      EXPECT_NEAR(forces.force(a)[d], fd, tol) << "atom " << a << " dim "
                                               << d;
    }
  }
}

TEST(MorseBond, EnergyAtMinimumAndDissociation) {
  Box box = Box::cubic(50);
  std::vector<MorseBond> bonds = {{0, 1, 5.0, 1.5, 2.0}};
  // At r = r0: zero energy and force.
  std::vector<Vec3> pos = {{0, 0, 0}, {2.0, 0, 0}};
  ForceResult out(2);
  ff::compute_morse_bonds(bonds, pos, box, out);
  EXPECT_NEAR(out.energy.bond.value(), 0.0, 1e-9);
  EXPECT_NEAR(norm(out.forces.force(0)), 0.0, 1e-6);
  // Far away: energy approaches the well depth D.
  pos[1] = {12.0, 0, 0};
  out.reset(2);
  ff::compute_morse_bonds(bonds, pos, box, out);
  EXPECT_NEAR(out.energy.bond.value(), 5.0, 1e-4);
}

TEST(MorseBond, ForceMatchesFiniteDifference) {
  Box box = Box::cubic(50);
  std::vector<MorseBond> bonds = {{0, 1, 4.0, 1.2, 1.8}};
  std::vector<Vec3> pos = {{0.3, -0.2, 0.5}, {2.1, 0.9, 0.1}};
  ForceResult out(2);
  ff::compute_morse_bonds(bonds, pos, box, out);
  auto energy = [&](const std::vector<Vec3>& p) {
    ForceResult r(2);
    ff::compute_morse_bonds(bonds, p, box, r);
    return r.energy.bond.value();
  };
  expect_gradients_match(energy, pos, out.forces, 2e-4);
}

TEST(UreyBradley, ActsAsOneThreeSpring) {
  Box box = Box::cubic(50);
  std::vector<UreyBradley> terms = {{0, 2, 20.0, 3.0}};
  std::vector<Vec3> pos = {{0, 0, 0}, {1.5, 1.0, 0}, {3.5, 0, 0}};
  ForceResult out(3);
  ff::compute_urey_bradleys(terms, pos, box, out);
  // U = 20 (3.5 - 3)² = 5; middle atom untouched.
  EXPECT_NEAR(out.energy.angle.value(), 5.0, 1e-6);
  EXPECT_EQ(norm(out.forces.force(1)), 0.0);
  // Stretched beyond s0: atom 0 is pulled toward atom 2 (+x).
  EXPECT_GT(out.forces.force(0).x, 0.0);
  EXPECT_LT(out.forces.force(2).x, 0.0);
}

TEST(UreyBradley, ForceDirectionWhenStretched) {
  Box box = Box::cubic(50);
  std::vector<UreyBradley> terms = {{0, 1, 10.0, 2.0}};
  std::vector<Vec3> pos = {{0, 0, 0}, {3.0, 0, 0}};  // stretched by 1
  ForceResult out(2);
  ff::compute_urey_bradleys(terms, pos, box, out);
  EXPECT_GT(out.forces.force(0).x, 0.0);   // pulled toward partner
  EXPECT_LT(out.forces.force(1).x, 0.0);
}

TEST(Improper, RestoresPlanarity) {
  Box box = Box::cubic(50);
  std::vector<Improper> imps = {{0, 1, 2, 3, 15.0, 0.0}};
  // Planar configuration: phi = 0, no force.
  std::vector<Vec3> pos = {{1, 1, 0}, {1, 0, 0}, {-1, 0, 0}, {-1, 1, 0}};
  ForceResult out(4);
  ff::compute_impropers(imps, pos, box, out);
  EXPECT_NEAR(out.energy.dihedral.value(), 0.0, 1e-9);
  // Out-of-plane: energy grows, FD matches.
  pos[3] = {-1, 0.9, 0.5};
  out.reset(4);
  ff::compute_impropers(imps, pos, box, out);
  EXPECT_GT(out.energy.dihedral.value(), 0.01);
  auto energy = [&](const std::vector<Vec3>& p) {
    ForceResult r(4);
    ff::compute_impropers(imps, p, box, r);
    return r.energy.dihedral.value();
  };
  expect_gradients_match(energy, pos, out.forces, 2e-3);
}

TEST(Improper, AngleDifferenceWraps) {
  Box box = Box::cubic(50);
  // phi0 near +pi and actual phi near -pi: wrapped difference is small.
  std::vector<Improper> imps = {{0, 1, 2, 3, 10.0, M_PI - 0.05}};
  std::vector<Vec3> pos = {{1, 1, 0}, {1, 0, 0}, {-1, 0, 0},
                           {-1, -1, 0.1}};  // phi ≈ -pi
  ForceResult out(4);
  ff::compute_impropers(imps, pos, box, out);
  EXPECT_LT(out.energy.dihedral.value(), 1.0);  // not ~10 (2π)² ≈ 400
}

TEST(DihedralBias, ForceMatchesFiniteDifference) {
  Box box = Box::cubic(50);
  std::vector<ff::DihedralBias> biases(1);
  biases[0].i = 0;
  biases[0].j = 1;
  biases[0].k = 2;
  biases[0].l = 3;
  biases[0].potential = [](double phi) -> std::pair<double, double> {
    return {1.7 * (1.0 + std::cos(2.0 * phi - 0.3)),
            -1.7 * 2.0 * std::sin(2.0 * phi - 0.3)};
  };
  std::vector<Vec3> pos = {
      {1.2, 1.0, 0.1}, {1.0, 0, 0}, {-1.0, 0.2, 0}, {-1.3, 1.0, 0.8}};
  ForceResult out(4);
  ff::compute_dihedral_biases(biases, pos, box, out);
  auto energy = [&](const std::vector<Vec3>& p) {
    ForceResult r(4);
    ff::compute_dihedral_biases(biases, p, box, r);
    return r.energy.restraint.value();
  };
  expect_gradients_match(energy, pos, out.forces, 2e-3);
}

TEST(TorsionMeta, DepositsPeriodicHills) {
  auto spec = build_polymer_in_solvent(8, 125);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  md::SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 150.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 150.0;
  md::Simulation sim(field, spec.positions, spec.box, cfg);

  sampling::TorsionMetaConfig mc;
  mc.deposit_interval = 15;
  mc.initial_height = 0.3;
  sampling::TorsionMetadynamics meta(sim, 0, 1, 2, 3, mc);
  meta.run(300);
  EXPECT_GT(meta.hill_count(), 10u);
  // The bias is 2π-periodic by construction.
  EXPECT_NEAR(meta.bias(-M_PI + 0.01), meta.bias(M_PI + 0.01), 1e-9);
  auto fes = meta.free_energy(36);
  EXPECT_EQ(fes.size(), 36u);
  double fmin = 1e300;
  for (const auto& [phi, f] : fes) fmin = std::min(fmin, f);
  EXPECT_NEAR(fmin, 0.0, 1e-9);
}

TEST(Transport, BallisticParticleMsdIsQuadratic) {
  // One free particle moving at constant velocity: MSD(lag) = |v|² t².
  analysis::TransportAccumulator acc({0}, 0.5);
  Box box = Box::cubic(100);
  Vec3 v{1.0, -2.0, 0.5};
  std::vector<Vec3> vel = {v};
  for (int f = 0; f < 30; ++f) {
    std::vector<Vec3> pos = {Vec3{5, 5, 5} + (0.5 * f) * v};
    acc.add_frame(pos, vel, box);
  }
  auto msd = acc.msd(10);
  for (size_t lag = 0; lag <= 10; ++lag) {
    double t = 0.5 * static_cast<double>(lag);
    EXPECT_NEAR(msd[lag], norm2(v) * t * t, 1e-9) << lag;
  }
  // VACF of constant velocity is exactly 1 at all lags.
  auto c = acc.vacf(10);
  for (double ci : c) EXPECT_NEAR(ci, 1.0, 1e-12);
}

TEST(Transport, UnwrapsThroughPeriodicBoundary) {
  analysis::TransportAccumulator acc({0}, 1.0);
  Box box = Box::cubic(10);
  std::vector<Vec3> vel = {{1, 0, 0}};
  // Particle crosses the wall: 9 -> wrapped 1 (true displacement 2).
  acc.add_frame(std::vector<Vec3>{{9, 5, 5}}, vel, box);
  acc.add_frame(std::vector<Vec3>{{1, 5, 5}}, vel, box);
  auto msd = acc.msd(1);
  EXPECT_NEAR(msd[1], 4.0, 1e-9);  // (2 Å)²
}

TEST(Transport, DiffusionOfLjFluidIsPositiveAndConsistent) {
  auto spec = build_lj_fluid(125, 0.018, 3);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  md::SimulationConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 160.0;
  cfg.thermostat.kind = md::ThermostatKind::kLangevin;
  cfg.thermostat.temperature_k = 160.0;
  cfg.thermostat.gamma_per_ps = 2.0;
  md::Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(200);

  std::vector<uint32_t> all(125);
  for (uint32_t i = 0; i < 125; ++i) all[i] = i;
  analysis::TransportAccumulator acc(all, 5 * sim.dt_internal());
  for (int f = 0; f < 80; ++f) {
    sim.run(5);
    acc.add_frame(sim.state().positions, sim.state().velocities,
                  sim.state().box);
  }
  double d_e = acc.diffusion_einstein(40, 10);
  double d_gk = acc.diffusion_green_kubo(40);
  EXPECT_GT(d_e, 0.0);
  EXPECT_GT(d_gk, 0.0);
  // Same order of magnitude (short trajectories: loose factor).
  EXPECT_LT(std::abs(std::log10(d_e / d_gk)), 1.0);
}

TEST(RunConfigTest, ParsesTypesAndComments) {
  auto cfg = io::RunConfig::from_string(
      "# a comment\n"
      "system = water   # trailing comment\n"
      "steps=250\n"
      "dt_fs = 2.5\n"
      "verbose = true\n"
      "\n");
  EXPECT_EQ(cfg.require_string("system"), "water");
  EXPECT_EQ(cfg.get_int("steps", 0), 250);
  EXPECT_DOUBLE_EQ(cfg.get_double("dt_fs", 0), 2.5);
  EXPECT_TRUE(cfg.get_bool("verbose", false));
  EXPECT_EQ(cfg.get_string("missing", "fallback"), "fallback");
}

TEST(RunConfigTest, ErrorsOnBadInput) {
  EXPECT_THROW(io::RunConfig::from_string("not a key value line\n"), Error);
  EXPECT_THROW(io::RunConfig::from_string("a=1\na=2\n"), Error);
  auto cfg = io::RunConfig::from_string("steps = abc\n");
  EXPECT_THROW(static_cast<void>(cfg.get_int("steps", 0)), Error);
  EXPECT_THROW(static_cast<void>(cfg.require_string("nope")), Error);
}

TEST(ForceFieldForms, NewTermsFlowThroughComputeBonded) {
  Topology topo;
  uint32_t c = topo.add_type("C", 3.5, 0.1);
  for (int i = 0; i < 4; ++i) topo.add_atom(c, 12.0, 0.0);
  topo.add_morse_bond(0, 1, 4.0, 1.2, 1.8);
  topo.add_urey_bradley(0, 2, 10.0, 3.0);
  topo.add_improper(0, 1, 2, 3, 5.0, 0.0);
  topo.add_molecule(0, 4, "X");
  topo.build_exclusions_from_bonds();
  topo.validate();

  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(topo, model);
  std::vector<Vec3> pos = {{0, 0, 0}, {1.9, 0, 0}, {3.1, 0.4, 0},
                           {4.0, 1.0, 0.6}};
  Box box = Box::cubic(30);
  ForceResult out(4);
  field.compute_bonded_terms(field.bonded_terms(), pos, box, 0.0, out);
  EXPECT_GT(out.energy.bond.value(), 0.0);      // Morse contributes
  EXPECT_GT(out.energy.angle.value(), 0.0);     // UB contributes
  EXPECT_GE(out.energy.dihedral.value(), 0.0);  // improper contributes
  // Morse 1-2 exclusion derived.
  EXPECT_TRUE(topo.is_excluded(0, 1));
}

}  // namespace
}  // namespace antmd
