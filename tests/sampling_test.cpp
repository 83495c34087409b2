// Tests for the sampling methods: simulated tempering, replica exchange,
// metadynamics, TAMD, FEP, umbrella sampling, steered pulling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/free_energy.hpp"
#include "ff/forcefield.hpp"
#include "md/simulation.hpp"
#include "sampling/fep.hpp"
#include "sampling/metadynamics.hpp"
#include "sampling/replica_exchange.hpp"
#include "sampling/smd.hpp"
#include "sampling/tamd.hpp"
#include "sampling/tempering.hpp"
#include "sampling/umbrella.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"

namespace antmd::sampling {
namespace {

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

TEST(Common, PotentialEnergyMatchesSimulation) {
  auto spec = build_lj_fluid(125, 0.021, 3);
  auto model = lj_model();
  ForceField field(spec.topology, model);
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));
  double direct = md::potential_energy(field, sim.state().positions,
                                       sim.state().box);
  EXPECT_NEAR(direct, sim.potential_energy(),
              1e-9 * std::abs(sim.potential_energy()) + 1e-9);
}

TEST(Tempering, WalksTheLadder) {
  auto spec = build_lj_fluid(125, 0.021, 5);
  auto model = lj_model();
  ForceField field(spec.topology, model);
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));

  TemperingConfig cfg;
  cfg.ladder = {120, 140, 165, 195};
  cfg.attempt_interval = 10;
  SimulatedTempering st(sim, cfg);
  st.run(800);

  EXPECT_GT(st.attempts(), 50u);
  EXPECT_GT(st.accepts(), 0u);
  // The walk should leave the bottom rung at least sometimes.
  size_t visited = 0;
  for (uint64_t occ : st.occupancy()) {
    if (occ > 0) ++visited;
  }
  EXPECT_GE(visited, 2u);
  // Thermostat target matches the current level.
  EXPECT_DOUBLE_EQ(sim.thermostat().temperature_k(),
                   st.current_temperature());
}

TEST(Tempering, RejectsBadConfig) {
  auto spec = build_lj_fluid(64, 0.021, 5);
  auto model = lj_model(6.0);
  ForceField field(spec.topology, model);
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));
  TemperingConfig cfg;
  cfg.ladder = {200, 100};  // not ascending
  EXPECT_THROW(SimulatedTempering(sim, cfg), Error);
}

TEST(Tremd, NeighbourSwapsAcceptAtCloseTemperatures) {
  auto spec = build_lj_fluid(125, 0.021, 7);
  auto model = lj_model();
  std::vector<double> temps = {120, 130, 141};

  std::vector<std::unique_ptr<ForceField>> fields;
  std::vector<std::unique_ptr<md::Simulation>> sims;
  std::vector<md::Simulation*> ptrs;
  for (double t : temps) {
    fields.push_back(std::make_unique<ForceField>(spec.topology, model));
    sims.push_back(std::make_unique<md::Simulation>(
        *fields.back(), spec.positions, spec.box, langevin_config(t)));
    ptrs.push_back(sims.back().get());
  }

  TemperatureReplicaExchange remd(ptrs, temps, /*attempt_interval=*/20);
  remd.run(400);

  const auto& stats = remd.stats();
  ASSERT_EQ(stats.attempts.size(), 2u);
  EXPECT_GT(stats.attempts[0] + stats.attempts[1], 10u);
  // Close temperatures on a small system: healthy acceptance.
  double acc = static_cast<double>(stats.accepts[0] + stats.accepts[1]) /
               static_cast<double>(stats.attempts[0] + stats.attempts[1]);
  EXPECT_GT(acc, 0.1);
  // slot_to_replica is a permutation.
  auto perm = remd.slot_to_replica();
  std::sort(perm.begin(), perm.end());
  for (size_t i = 0; i < perm.size(); ++i) EXPECT_EQ(perm[i], i);
}

TEST(Hremd, ScaledHamiltoniansExchange) {
  auto spec = build_lj_fluid(125, 0.021, 9);
  auto model = lj_model();
  std::vector<double> scales = {1.0, 0.9, 0.8};

  std::vector<std::unique_ptr<ForceField>> fields;
  std::vector<std::unique_ptr<md::Simulation>> sims;
  std::vector<md::Simulation*> ptrs;
  for (double s : scales) {
    fields.push_back(std::make_unique<ForceField>(spec.topology, model));
    fields.back()->set_vdw_scale(s);
    sims.push_back(std::make_unique<md::Simulation>(
        *fields.back(), spec.positions, spec.box, langevin_config(130)));
    ptrs.push_back(sims.back().get());
  }
  HamiltonianReplicaExchange hremd(ptrs, 130.0, 20);
  hremd.run(200);
  EXPECT_GT(hremd.stats().attempts[0] + hremd.stats().attempts[1], 4u);
  uint64_t total_accepts =
      hremd.stats().accepts[0] + hremd.stats().accepts[1];
  EXPECT_GT(total_accepts, 0u);
}

TEST(Meta, SingleHillShape) {
  auto spec = build_dimer_in_solvent(64, 5.0, 11);
  ff::NonbondedModel model = lj_model(6.0);
  ForceField field(spec.topology, model);
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));

  MetadynamicsConfig cfg;
  cfg.initial_height = 0.5;
  cfg.sigma = 0.3;
  cfg.deposit_interval = 1000000;  // never auto-deposits in this test
  Metadynamics meta(sim, spec.tagged[0], spec.tagged[1], cfg);
  EXPECT_EQ(meta.hill_count(), 0u);
  EXPECT_DOUBLE_EQ(meta.bias(3.0), 0.0);
}

TEST(Meta, DepositsHillsAndBiasGrows) {
  auto spec = build_dimer_in_solvent(64, 5.0, 13);
  ff::NonbondedModel model = lj_model(6.0);
  ForceField field(spec.topology, model);
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));

  MetadynamicsConfig cfg;
  cfg.initial_height = 0.4;
  cfg.sigma = 0.3;
  cfg.bias_factor = 6.0;
  cfg.deposit_interval = 20;
  cfg.cv_min = 2.0;
  cfg.cv_max = 9.0;
  Metadynamics meta(sim, spec.tagged[0], spec.tagged[1], cfg);
  meta.run(400);

  EXPECT_GT(meta.hill_count(), 10u);
  // Bias is positive where hills were deposited (near the sampled CV).
  double cv = meta.current_cv();
  EXPECT_GT(meta.bias(cv), 0.0);
  // Free-energy estimate is min-shifted to zero.
  auto fes = meta.free_energy(50);
  double fmin = 1e300;
  for (const auto& [xi, f] : fes) fmin = std::min(fmin, f);
  EXPECT_NEAR(fmin, 0.0, 1e-9);
}

TEST(Meta, WellTemperedHeightsDecay) {
  auto spec = build_dimer_in_solvent(64, 5.0, 15);
  ff::NonbondedModel model = lj_model(6.0);
  ForceField field(spec.topology, model);
  // Freeze the dimer near one CV value with a stiff restraint so hills pile
  // up in one place and the well-tempered decay is visible.
  field.add_distance_restraint({spec.tagged[0], spec.tagged[1], 50.0, 5.0,
                                0.0});
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));
  MetadynamicsConfig cfg;
  cfg.initial_height = 0.5;
  cfg.sigma = 0.4;
  cfg.bias_factor = 3.0;
  cfg.deposit_interval = 10;
  Metadynamics meta(sim, spec.tagged[0], spec.tagged[1], cfg);
  meta.run(600);
  ASSERT_GT(meta.hill_count(), 20u);
  // Bias at the trap grows sublinearly: the last hills are much smaller
  // than the first, so bias(5.0) << n_hills * h0.
  EXPECT_LT(meta.bias(5.0),
            0.6 * static_cast<double>(meta.hill_count()) * 0.5);
}

TEST(TamdTest, AuxiliaryVariableStaysBoundedAndMoves) {
  auto spec = build_dimer_in_solvent(64, 5.0, 17);
  ff::NonbondedModel model = lj_model(6.0);
  ForceField field(spec.topology, model);
  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));

  TamdConfig cfg;
  cfg.spring_k = 20.0;
  cfg.z_temperature_k = 2000.0;
  cfg.z_min = 2.0;
  cfg.z_max = 9.0;
  Tamd tamd(sim, spec.tagged[0], spec.tagged[1], cfg);
  double z0 = tamd.z();
  tamd.run(300);
  EXPECT_GE(tamd.z(), cfg.z_min);
  EXPECT_LE(tamd.z(), cfg.z_max);
  EXPECT_NE(tamd.z(), z0);  // the hot variable moved
  // CV follows z loosely through the spring.
  EXPECT_LT(std::abs(tamd.current_cv() - tamd.z()), 3.0);
}

TEST(Fep, LambdaOneMatchesPlainLJ) {
  auto spec = build_dimer_in_solvent(64, 4.0, 19);
  ff::NonbondedModel model = lj_model(6.0);
  FepConfig cfg;
  cfg.md = langevin_config(120);
  FepDecoupling fep(spec, /*solute type=*/0, model, cfg);

  auto coupled = fep.make_field(1.0);
  ForceField plain(spec.topology, model);
  double u_sc = md::potential_energy(*coupled, spec.positions, spec.box);
  double u_lj = md::potential_energy(plain, spec.positions, spec.box);
  EXPECT_NEAR(u_sc, u_lj, 0.02 * std::abs(u_lj) + 0.05);
}

TEST(Fep, DecouplingProducesFiniteFreeEnergy) {
  auto spec = build_dimer_in_solvent(64, 4.0, 21);
  ff::NonbondedModel model = lj_model(6.0);
  FepConfig cfg;
  cfg.lambdas = {1.0, 0.6, 0.3, 0.0};
  cfg.equil_steps = 100;
  cfg.prod_steps = 500;
  cfg.sample_interval = 5;
  cfg.md = langevin_config(120);
  FepDecoupling fep(spec, 0, model, cfg);
  auto result = fep.run();

  ASSERT_EQ(result.windows.size(), 4u);
  EXPECT_FALSE(result.windows[0].du_to_next.empty());
  EXPECT_FALSE(result.windows[3].du_to_prev.empty());
  EXPECT_TRUE(std::isfinite(result.delta_f_bar));
  EXPECT_TRUE(std::isfinite(result.delta_f_zwanzig));
  // BAR and Zwanzig should roughly agree; the test budget is tiny, so the
  // tolerance is generous (kcal/mol scale, not statistical-precision scale).
  EXPECT_NEAR(result.delta_f_bar, result.delta_f_zwanzig,
              std::max(2.5, 0.5 * std::abs(result.delta_f_bar)));
}

TEST(Umbrella, WindowsTrackTheirCenters) {
  auto spec = build_dimer_in_solvent(64, 5.0, 23);
  ff::NonbondedModel model = lj_model(6.0);
  UmbrellaConfig cfg;
  cfg.centers = {4.0, 5.0, 6.0};
  cfg.k = 25.0;  // stiff: samples hug the centers
  cfg.equil_steps = 100;
  cfg.prod_steps = 300;
  cfg.sample_interval = 5;
  cfg.md = langevin_config(120);

  auto windows = run_umbrella(spec, model, spec.tagged[0], spec.tagged[1],
                              cfg);
  ASSERT_EQ(windows.size(), 3u);
  for (size_t w = 0; w < windows.size(); ++w) {
    ASSERT_GT(windows[w].samples.size(), 20u);
    double m = 0;
    for (double s : windows[w].samples) m += s;
    m /= static_cast<double>(windows[w].samples.size());
    EXPECT_NEAR(m, cfg.centers[w], 0.6) << "window " << w;
  }
}

TEST(Smd, PullingDoesPositiveWorkAgainstAttraction) {
  auto spec = build_dimer_in_solvent(64, 4.0, 25);
  ff::NonbondedModel model = lj_model(6.0);
  ForceField field(spec.topology, model);
  // Give the dimer a deep custom well at 4 Å so pulling costs work.
  auto well = RadialTable::from_potential(
      [](double r) { return 3.0 * (r - 4.0) * (r - 4.0) - 5.0; },
      [](double r) { return 6.0 * (r - 4.0); }, 0.8, 6.0, 512, true);
  field.set_custom_pair_table(0, 0, std::move(well));
  size_t spring = field.add_steered_spring(
      {spec.tagged[0], spec.tagged[1], 15.0, 4.0, 0.02});

  md::Simulation sim(field, spec.positions, spec.box, langevin_config(120));
  SteeredPull pull(sim, spring);
  pull.run(600, 20);

  EXPECT_GT(pull.total_work(), 0.0);
  EXPECT_FALSE(pull.times().empty());
  EXPECT_EQ(pull.times().size(), pull.work_trace().size());
  // Targets move monotonically.
  for (size_t k = 1; k < pull.targets().size(); ++k) {
    EXPECT_GT(pull.targets()[k], pull.targets()[k - 1]);
  }
}

}  // namespace
}  // namespace antmd::sampling
