// Parameterized property tests: invariants swept over parameter spaces
// with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "ff/forcefield.hpp"
#include "ff/nonbonded_cluster.hpp"
#include "ff/nonbonded_simd.hpp"
#include "math/fixed.hpp"
#include "math/pbc.hpp"
#include "math/rng.hpp"
#include "math/spline.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "topo/builders.hpp"

namespace antmd {
namespace {

// ---------------------------------------------------------------------------
// Box properties across shapes.
// ---------------------------------------------------------------------------
class BoxShapes : public ::testing::TestWithParam<std::array<double, 3>> {};

TEST_P(BoxShapes, WrapInPrimaryCellAndMinImageBounded) {
  auto e = GetParam();
  Box box(e[0], e[1], e[2]);
  SequentialRng rng(5);
  for (int i = 0; i < 300; ++i) {
    Vec3 r{rng.uniform(-100, 100), rng.uniform(-100, 100),
           rng.uniform(-100, 100)};
    Vec3 w = box.wrap(r);
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(w[d], 0.0);
      EXPECT_LT(w[d], e[d]);
    }
    Vec3 s{rng.uniform(-100, 100), rng.uniform(-100, 100),
           rng.uniform(-100, 100)};
    Vec3 mi = box.min_image(r, s);
    for (int d = 0; d < 3; ++d) {
      EXPECT_LE(std::abs(mi[d]), e[d] / 2 + 1e-9);
    }
    // Wrapping both points leaves the minimum image unchanged.
    Vec3 mi2 = box.min_image(box.wrap(r), box.wrap(s));
    EXPECT_NEAR(mi.x, mi2.x, 1e-9);
    EXPECT_NEAR(mi.y, mi2.y, 1e-9);
    EXPECT_NEAR(mi.z, mi2.z, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BoxShapes,
    ::testing::Values(std::array<double, 3>{10, 10, 10},
                      std::array<double, 3>{8, 15, 23.7},
                      std::array<double, 3>{100, 3.1, 47},
                      std::array<double, 3>{1.5, 1.5, 1.5}));

// ---------------------------------------------------------------------------
// Neighbor list equals brute force across density/cutoff combinations.
// ---------------------------------------------------------------------------
struct NeighborCase {
  size_t atoms;
  double density;
  double cutoff;
  double skin;
};

class NeighborSweep : public ::testing::TestWithParam<NeighborCase> {};

TEST_P(NeighborSweep, MatchesBruteForce) {
  auto c = GetParam();
  auto spec = build_lj_fluid(c.atoms, c.density, 7);
  md::NeighborList list(spec.topology, c.cutoff, c.skin);
  list.build(spec.positions, spec.box);
  double reach2 = (c.cutoff + c.skin) * (c.cutoff + c.skin);
  std::set<std::pair<uint32_t, uint32_t>> brute;
  for (uint32_t i = 0; i < spec.topology.atom_count(); ++i) {
    for (uint32_t j = i + 1; j < spec.topology.atom_count(); ++j) {
      if (spec.box.distance2(spec.positions[i], spec.positions[j]) <
          reach2) {
        brute.insert({i, j});
      }
    }
  }
  std::set<std::pair<uint32_t, uint32_t>> found;
  for (const auto& p : list.pairs()) found.insert({p.i, p.j});
  EXPECT_EQ(found, brute);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NeighborSweep,
    ::testing::Values(NeighborCase{125, 0.010, 6.0, 1.0},
                      NeighborCase{125, 0.021, 7.0, 0.0},
                      NeighborCase{216, 0.021, 5.0, 2.0},
                      NeighborCase{343, 0.030, 6.0, 1.5},
                      NeighborCase{512, 0.015, 9.0, 1.0}));

// ---------------------------------------------------------------------------
// Tabulated potentials reproduce their analytic form across families.
// ---------------------------------------------------------------------------
struct TableCase {
  const char* name;
  double (*energy)(double);
  double (*denergy)(double);
  double tolerance;
};

double morse_e(double r) {
  double x = 1.0 - std::exp(-1.2 * (r - 3.5));
  return 2.5 * x * x - 2.5;
}
double morse_de(double r) {
  double ex = std::exp(-1.2 * (r - 3.5));
  return 2.0 * 2.5 * (1.0 - ex) * 1.2 * ex;
}
double yukawa_e(double r) { return 12.0 * std::exp(-0.8 * r) / r; }
double yukawa_de(double r) {
  return -12.0 * std::exp(-0.8 * r) * (0.8 / r + 1.0 / (r * r));
}
double gauss_e(double r) { return -3.0 * std::exp(-(r - 4) * (r - 4)); }
double gauss_de(double r) {
  return 6.0 * (r - 4) * std::exp(-(r - 4) * (r - 4));
}

class TableFamilies : public ::testing::TestWithParam<TableCase> {};

TEST_P(TableFamilies, EnergyAndForceMatchAnalytic) {
  auto c = GetParam();
  auto table = RadialTable::from_potential(c.energy, c.denergy, 1.0, 9.0,
                                           2048, false);
  for (double r = 1.2; r < 8.8; r += 0.037) {
    auto eval = table.evaluate(r * r);
    EXPECT_NEAR(eval.energy, c.energy(r), c.tolerance) << c.name << " r=" << r;
    double exact_for = -c.denergy(r) / r;
    EXPECT_NEAR(eval.force_over_r, exact_for,
                c.tolerance * 5 * std::max(1.0, std::abs(exact_for)))
        << c.name << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, TableFamilies,
    ::testing::Values(TableCase{"morse", morse_e, morse_de, 1e-4},
                      TableCase{"yukawa", yukawa_e, yukawa_de, 1e-4},
                      TableCase{"gaussian-well", gauss_e, gauss_de, 1e-4}));

// ---------------------------------------------------------------------------
// Fixed-point accumulation is partition-independent for any node count.
// ---------------------------------------------------------------------------
class PartitionCounts : public ::testing::TestWithParam<size_t> {};

TEST_P(PartitionCounts, MergedForcesBitIdentical) {
  const size_t n_nodes = GetParam();
  const size_t n_atoms = 50;
  SequentialRng rng(n_nodes * 131 + 7);
  struct P {
    size_t i, j;
    Vec3 f;
  };
  std::vector<P> pairs;
  for (int k = 0; k < 3000; ++k) {
    size_t i = rng.uniform_int(n_atoms);
    size_t j = (i + 1 + rng.uniform_int(n_atoms - 1)) % n_atoms;
    pairs.push_back({i, j,
                     Vec3{rng.uniform(-9, 9), rng.uniform(-9, 9),
                          rng.uniform(-9, 9)}});
  }
  FixedForceArray ref(n_atoms);
  for (const auto& p : pairs) ref.add_pair(p.i, p.j, p.f);

  std::vector<FixedForceArray> parts(n_nodes, FixedForceArray(n_atoms));
  for (size_t k = 0; k < pairs.size(); ++k) {
    parts[(k * 2654435761u) % n_nodes].add_pair(pairs[k].i, pairs[k].j,
                                                pairs[k].f);
  }
  FixedForceArray merged(n_atoms);
  // Merge in reverse order for good measure.
  for (size_t n = n_nodes; n-- > 0;) merged.merge(parts[n]);
  EXPECT_EQ(ref, merged);
}

INSTANTIATE_TEST_SUITE_P(Counts, PartitionCounts,
                         ::testing::Values(2, 3, 8, 27, 64, 512));

// ---------------------------------------------------------------------------
// NVE conservation across timesteps: drift grows with dt but stays bounded.
// ---------------------------------------------------------------------------
class TimestepSweep : public ::testing::TestWithParam<double> {};

TEST_P(TimestepSweep, LjFluidEnergyBounded) {
  double dt = GetParam();
  auto spec = build_lj_fluid(125, 0.021, 4);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  md::SimulationConfig cfg;
  cfg.dt_fs = dt;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 110.0;
  cfg.thermostat.kind = md::ThermostatKind::kNone;
  cfg.com_removal_interval = 0;
  md::Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(50);
  double e0 = sim.potential_energy() + sim.kinetic_energy();
  sim.run(200);
  double e1 = sim.potential_energy() + sim.kinetic_energy();
  EXPECT_TRUE(std::isfinite(e1));
  EXPECT_NEAR(e1, e0, 0.05 * (std::abs(e0) + 10.0)) << "dt=" << dt;
}

INSTANTIATE_TEST_SUITE_P(Dt, TimestepSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 6.0));

// ---------------------------------------------------------------------------
// Thermostats hit their target across kinds and temperatures.
// ---------------------------------------------------------------------------
struct ThermoCase {
  md::ThermostatKind kind;
  double target;
};

class ThermostatSweep : public ::testing::TestWithParam<ThermoCase> {};

TEST_P(ThermostatSweep, ReachesTarget) {
  auto c = GetParam();
  auto spec = build_lj_fluid(125, 0.021, 6);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  md::SimulationConfig cfg;
  cfg.dt_fs = 4.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 100.0;
  cfg.thermostat.kind = c.kind;
  cfg.thermostat.temperature_k = c.target;
  cfg.thermostat.tau_fs = 200.0;
  cfg.thermostat.gamma_per_ps = 5.0;
  md::Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(800);
  double t_sum = 0;
  for (int i = 0; i < 150; ++i) {
    sim.step();
    t_sum += sim.temperature();
  }
  EXPECT_NEAR(t_sum / 150, c.target, 0.2 * c.target) << "kind/temp case";
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ThermostatSweep,
    ::testing::Values(ThermoCase{md::ThermostatKind::kBerendsen, 160.0},
                      ThermoCase{md::ThermostatKind::kLangevin, 160.0},
                      ThermoCase{md::ThermostatKind::kLangevin, 90.0},
                      ThermoCase{md::ThermostatKind::kNoseHoover, 140.0}));

// ---------------------------------------------------------------------------
// Soft-core tables interpolate monotonically toward full coupling at the
// cutoff-side tail for every alpha.
// ---------------------------------------------------------------------------
class SoftcoreAlphas : public ::testing::TestWithParam<double> {};

TEST_P(SoftcoreAlphas, EndpointsAndFiniteness) {
  double alpha = GetParam();
  ff::NonbondedModel model;
  model.cutoff = 9.0;
  model.table_inner = 0.3;
  auto lj = ff::make_lj_table(3.4, 0.24, model);
  auto sc1 = ff::make_softcore_lj_table(3.4, 0.24, 1.0, alpha, model);
  auto sc0 = ff::make_softcore_lj_table(3.4, 0.24, 0.0, alpha, model);
  for (double r = 3.2; r < 8.5; r += 0.33) {
    EXPECT_NEAR(sc1.evaluate(r * r).energy, lj.evaluate(r * r).energy, 1e-3)
        << "alpha=" << alpha;
    EXPECT_EQ(sc0.evaluate(r * r).energy, 0.0);
  }
  // Finite at contact for intermediate lambda.
  auto mid = ff::make_softcore_lj_table(3.4, 0.24, 0.5, alpha, model);
  EXPECT_LT(std::abs(mid.evaluate(0.09).energy), 1e3);
}

INSTANTIATE_TEST_SUITE_P(Alphas, SoftcoreAlphas,
                         ::testing::Values(0.25, 0.5, 1.0));

// ---------------------------------------------------------------------------
// Cluster-builder properties: the tile masks encode exactly the brute-force
// pair set, and skipping empty rows raises the useful-lane fraction a SIMD
// evaluator streams.
// ---------------------------------------------------------------------------
TEST(ClusterBuilder, MasksEncodeExactlyTheFlatPairs) {
  const uint32_t width = ff::kClusterWidth;
  const double reach = 7.0 + 1.2;
  for (uint64_t seed : {5u, 11u, 23u}) {
    auto spec = build_lj_fluid(343, 0.021, seed);
    md::NeighborList list(spec.topology, 7.0, 1.2, /*cluster_mode=*/true);
    list.build(spec.positions, spec.box);
    const auto& cl = list.clusters();
    ASSERT_EQ(cl.width, width);

    std::set<std::pair<uint32_t, uint32_t>> flat;
    const auto n = static_cast<uint32_t>(spec.positions.size());
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (spec.box.distance2(spec.positions[i], spec.positions[j]) <
            reach * reach) {
          flat.insert({i, j});
        }
      }
    }

    std::set<std::pair<uint32_t, uint32_t>> decoded;
    size_t bits_total = 0;
    size_t rows_with_bits = 0;
    for (const auto& e : cl.entries) {
      for (uint32_t a = 0; a < width; ++a) {
        const uint64_t row = (e.mask >> (a * ff::kClusterJWidth)) & 0xfull;
        if (row != 0) ++rows_with_bits;
      }
      for (uint64_t m = e.mask; m != 0; m &= m - 1) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(m));
        const uint32_t i = cl.atoms[e.ci * width + (bit >> 2)];
        const uint32_t j =
            cl.atoms[e.cj * ff::kClusterJWidth + (bit & 3)];
        ASSERT_NE(i, ff::kPadAtom) << "mask bit touches a padding slot";
        ASSERT_NE(j, ff::kPadAtom) << "mask bit touches a padding slot";
        decoded.insert({std::min(i, j), std::max(i, j)});
        ++bits_total;
      }
    }
    EXPECT_EQ(decoded, flat) << "seed=" << seed;
    EXPECT_EQ(bits_total, flat.size()) << "a pair appears in two tiles";
    EXPECT_EQ(cl.real_pairs, flat.size());
    EXPECT_EQ(cl.active_rows, rows_with_bits)
        << "active_rows must count exactly the rows a row-skipping "
           "evaluator streams";
  }
}

// At production scale the lanes a row-skipping evaluator streams are far
// busier than the naive all-lanes figure.
TEST(ClusterBuilder, RowSkippingRaisesStreamedFillAt12kAtoms) {
  auto spec = build_lj_fluid(12000, 0.021, 7);
  md::NeighborList list(spec.topology, 7.0, 1.0, true);
  list.build(spec.positions, spec.box);
  const auto& cl = list.clusters();
  EXPECT_GT(cl.streamed_fill_ratio(), cl.fill_ratio());
  EXPECT_GT(cl.streamed_fill_ratio(), 0.45);
}

// ---------------------------------------------------------------------------
// Physics invariants hold for BOTH nonbonded kernels (flat pair list and
// blocked cluster-pair), and for the cluster kernel under every compiled
// SIMD variant, which must reproduce the same physics (it is specified
// bit-identical, so these sweeps double as a sanity net, not just the
// differential fixtures).  The case for the process's active ISA goes
// through ForceField::compute_nonbonded_clusters (the chunked partial-sum
// path every caller uses); the other ISAs call their tile loop directly.
// The NVE case runs the whole step graph, which dispatches to the active
// ISA only; tests/CMakeLists.txt registers this sweep again under each
// ANTMD_FORCE_ISA so every variant's NVE case runs in tier-1.
// ---------------------------------------------------------------------------
struct KernelCase {
  ff::NonbondedKernel kernel;
  ff::KernelIsa isa;
};

class KernelSweep : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    const ff::KernelIsa isa = GetParam().isa;
    if (!ff::kernel_isa_supported(isa)) {
      GTEST_SKIP() << ff::to_string(isa)
                   << " is not supported by this build/CPU";
    }
  }
};

/// Real-space nonbonded evaluation through the selected kernel (and, for
/// the cluster kernel, the selected ISA), with a fresh neighbor list built
/// for the given positions/box.
ForceResult nonbonded_only(const Topology& topo, const ForceField& field,
                           const KernelCase& kc,
                           const std::vector<Vec3>& positions,
                           const Box& box) {
  ForceResult out(topo.atom_count());
  md::NeighborList list(topo, field.model().cutoff, 1.0,
                        kc.kernel == ff::NonbondedKernel::kCluster);
  list.build(positions, box);
  if (!list.cluster_mode()) {
    field.compute_nonbonded(list.pairs(), positions, box, out);
  } else if (kc.isa == ff::active_kernel_isa()) {
    field.compute_nonbonded_clusters(list.clusters(), positions, box, out);
  } else {
    EXPECT_TRUE(field.tables().simd_arena().valid);
    const ff::ClusterPairList& cl = list.clusters();
    ff::gather_cluster_coords(cl, positions);
    ff::cluster_tile_loop(kc.isa)(cl, cl.entries, field.tables(), box,
                                  out.forces, out.energy, out.virial,
                                  field.vdw_scale(),
                                  field.charge_product_scale());
  }
  return out;
}

// Newton's third law: pairwise forces are accumulated as +q / -q in fixed
// point, so the net force is EXACTLY zero quanta in every component.
TEST_P(KernelSweep, NewtonThirdLawNetForceExactlyZero) {
  auto spec = build_ionic_solution(125, 4, 9);
  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kReactionCutoff;
  ForceField field(spec.topology, model);
  ForceResult res = nonbonded_only(spec.topology, field, GetParam(),
                                   spec.positions, spec.box);
  std::array<int64_t, 3> net{0, 0, 0};
  for (size_t i = 0; i < res.forces.size(); ++i) {
    auto q = res.forces.quanta(i);
    net[0] += q[0];
    net[1] += q[1];
    net[2] += q[2];
  }
  EXPECT_EQ(net[0], 0);
  EXPECT_EQ(net[1], 0);
  EXPECT_EQ(net[2], 0);
}

// Virial consistency: tr(W) = sum r.f must equal -dU/dlambda under a uniform
// scaling of box and coordinates (numerical central difference).
TEST_P(KernelSweep, VirialMatchesNumericalVolumeDerivative) {
  auto spec = build_lj_fluid(216, 0.021, 13);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);

  auto scaled_energy = [&](double lambda) {
    std::vector<Vec3> pos(spec.positions);
    for (auto& p : pos) p = p * lambda;
    Box box(spec.box.edges().x * lambda, spec.box.edges().y * lambda,
            spec.box.edges().z * lambda);
    ForceResult r = nonbonded_only(spec.topology, field, GetParam(), pos, box);
    return r.energy.total();
  };

  ForceResult base = nonbonded_only(spec.topology, field, GetParam(),
                                    spec.positions, spec.box);
  const double h = 1e-5;
  const double du_dlambda = (scaled_energy(1.0 + h) - scaled_energy(1.0 - h)) /
                            (2.0 * h);
  const double w = trace(base.virial);
  EXPECT_NEAR(w, -du_dlambda, 5e-3 * std::abs(w) + 0.1)
      << "kernel=" << ff::to_string(GetParam().kernel);
}

// Energy conservation over a long NVE trajectory through the full
// md::Simulation stack with the kernel selected via SimulationConfig.
TEST_P(KernelSweep, NveDriftBoundedOver2kSteps) {
  if (GetParam().kernel == ff::NonbondedKernel::kCluster &&
      GetParam().isa != ff::active_kernel_isa()) {
    GTEST_SKIP() << "the step graph dispatches to the active ISA ("
                 << ff::to_string(ff::active_kernel_isa())
                 << "); the ANTMD_FORCE_ISA=" << ff::to_string(GetParam().isa)
                 << " registration of this sweep runs this case";
  }
  auto spec = build_lj_fluid(125, 0.021, 4);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  md::SimulationConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.neighbor_skin = 1.0;
  cfg.init_temperature_k = 110.0;
  cfg.thermostat.kind = md::ThermostatKind::kNone;
  cfg.com_removal_interval = 0;
  cfg.nonbonded_kernel = GetParam().kernel;
  md::Simulation sim(field, spec.positions, spec.box, cfg);
  sim.run(50);
  double e0 = sim.potential_energy() + sim.kinetic_energy();
  sim.run(2000);
  double e1 = sim.potential_energy() + sim.kinetic_energy();
  EXPECT_TRUE(std::isfinite(e1));
  EXPECT_NEAR(e1, e0, 0.02 * (std::abs(e0) + 10.0))
      << "kernel=" << ff::to_string(GetParam().kernel);
}

// The nonbonded energy depends only on relative geometry: rigid translation
// and a cube-group rotation (90 degrees about z, which the cubic periodic
// cell maps onto itself) leave it unchanged to rounding.
TEST_P(KernelSweep, TranslationAndRotationInvariance) {
  auto spec = build_lj_fluid(216, 0.021, 17);
  ff::NonbondedModel model;
  model.cutoff = 7.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField field(spec.topology, model);
  const double e_ref =
      nonbonded_only(spec.topology, field, GetParam(), spec.positions,
                     spec.box)
          .energy.total();
  const double tol = 1e-6 * std::abs(e_ref) + 1e-8;

  // Translation by an arbitrary vector (min-image handles unwrapped input).
  std::vector<Vec3> shifted(spec.positions);
  for (auto& p : shifted) p = p + Vec3{1.234, -2.345, 0.777};
  const double e_shift =
      nonbonded_only(spec.topology, field, GetParam(), shifted, spec.box)
          .energy.total();
  EXPECT_NEAR(e_shift, e_ref, tol) << "kernel=" << ff::to_string(GetParam().kernel);

  // Rotation: (x, y, z) -> (L - y, x, z) for the cubic cell.
  const double edge = spec.box.edges().x;
  ASSERT_DOUBLE_EQ(edge, spec.box.edges().y);
  std::vector<Vec3> rotated(spec.positions);
  for (auto& p : rotated) p = Vec3{edge - p.y, p.x, p.z};
  const double e_rot =
      nonbonded_only(spec.topology, field, GetParam(), rotated, spec.box)
          .energy.total();
  EXPECT_NEAR(e_rot, e_ref, tol) << "kernel=" << ff::to_string(GetParam().kernel);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelSweep,
    ::testing::Values(
        KernelCase{ff::NonbondedKernel::kPair, ff::KernelIsa::kScalar},
        KernelCase{ff::NonbondedKernel::kCluster, ff::KernelIsa::kScalar},
        KernelCase{ff::NonbondedKernel::kCluster, ff::KernelIsa::kAvx2},
        KernelCase{ff::NonbondedKernel::kCluster, ff::KernelIsa::kAvx512}),
    [](const auto& info) {
      return std::string(ff::to_string(info.param.kernel)) + "_" +
             ff::to_string(info.param.isa);
    });

}  // namespace
}  // namespace antmd
