// Tests for the MD engine: neighbor lists, constraints, thermostats,
// barostats, and integration-level invariants (energy conservation,
// temperature control, constraint maintenance).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>

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

/// Every i < j within `reach` that the topology does not exclude, by
/// O(N^2) brute force.
std::set<std::pair<uint32_t, uint32_t>> brute_force_pairs(
    const Topology& topo, std::span<const Vec3> pos, const Box& box,
    double reach) {
  std::set<std::pair<uint32_t, uint32_t>> out;
  const auto n = static_cast<uint32_t>(pos.size());
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (box.distance2(pos[i], pos[j]) < reach * reach &&
          !topo.is_excluded(i, j)) {
        out.insert({i, j});
      }
    }
  }
  return out;
}

TEST(NeighborListTest, FindsExactlyTheBrutForcePairs) {
  auto spec = build_lj_fluid(216, 0.021, 3);
  double cutoff = 8.0, skin = 1.0;
  NeighborList list(spec.topology, cutoff, skin);
  list.build(spec.positions, spec.box);

  const auto brute = brute_force_pairs(spec.topology, spec.positions,
                                       spec.box, cutoff + skin);
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

// The cluster-pair tiles must decode to EXACTLY the brute-force {i, j}
// set, padding slots must never carry mask bits, and the bookkeeping
// (real_pairs, fill ratio) must be consistent.
TEST(NeighborListTest, ClusterTilesEncodeExactlyTheFlatPairs) {
  auto spec = build_lj_fluid(343, 0.021, 5);
  NeighborList list(spec.topology, 8.0, 1.5, /*cluster_mode=*/true);
  list.build(spec.positions, spec.box);
  const auto& cl = list.clusters();

  ASSERT_EQ(cl.atoms.size(), cl.cluster_count() * cl.width);
  ASSERT_EQ(cl.slot_types.size(), cl.atoms.size());
  ASSERT_EQ(cl.slot_charges.size(), cl.atoms.size());

  const auto flat =
      brute_force_pairs(spec.topology, spec.positions, spec.box, 8.0 + 1.5);

  std::set<std::pair<uint32_t, uint32_t>> decoded;
  size_t bits_total = 0;
  for (const auto& e : cl.entries) {
    // The i-side slot base never exceeds the j-group's last slot (the lower
    // slot of each pair takes the i side).
    ASSERT_LE(e.ci * cl.width, e.cj * ff::kClusterJWidth + 3);
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

/// The tile list by a test-local O(N^2) construction: the fine-grid slot
/// order (cells of edge >= cbrt(8 V / N), cell-major z, y, x, ascending atom
/// within a cell, padded to whole 8-slot clusters), every brute-force pair
/// placed as bit (a * 4 + b) of tile (lower slot / 8, upper slot / 4), the
/// tiles keyed and sorted.
struct ReferenceTiles {
  std::vector<uint32_t> atoms;
  std::vector<std::tuple<uint32_t, uint32_t, uint64_t>> entries;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  size_t active_rows = 0;
};

ReferenceTiles reference_tiles(const Topology& topo,
                               std::span<const Vec3> pos, const Box& box,
                               double reach) {
  ReferenceTiles ref;
  const size_t n = pos.size();
  const Vec3 edges = box.edges();
  const double cell = std::max(
      std::cbrt(box.volume() * 8.0 / std::max<double>(1.0, n)), 1e-6);
  int dims[3];
  for (int ax = 0; ax < 3; ++ax) {
    dims[ax] = std::max(1, static_cast<int>(edges[ax] / cell));
  }
  std::vector<std::pair<size_t, uint32_t>> keyed;  // (cell, atom)
  for (uint32_t i = 0; i < n; ++i) {
    const Vec3 w = box.wrap(pos[i]);
    size_t key = 0;
    for (int ax = 2; ax >= 0; --ax) {
      const int c = std::clamp(
          static_cast<int>(w[ax] / edges[ax] * dims[ax]), 0, dims[ax] - 1);
      key = key * static_cast<size_t>(dims[ax]) + static_cast<size_t>(c);
    }
    keyed.emplace_back(key, i);
  }
  std::sort(keyed.begin(), keyed.end());
  ref.atoms.assign((n + 7) / 8 * 8, ff::kPadAtom);
  std::vector<uint32_t> slot_of(n);
  for (size_t s = 0; s < n; ++s) {
    ref.atoms[s] = keyed[s].second;
    slot_of[keyed[s].second] = static_cast<uint32_t>(s);
  }
  const auto pairs = brute_force_pairs(topo, pos, box, reach);
  ref.pairs.assign(pairs.begin(), pairs.end());
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> tiles;
  for (const auto& [i, j] : pairs) {
    const uint32_t lo = std::min(slot_of[i], slot_of[j]);
    const uint32_t hi = std::max(slot_of[i], slot_of[j]);
    tiles[{lo / 8, hi / 4}] |= uint64_t{1} << ((lo % 8) * 4 + hi % 4);
  }
  for (const auto& [key, mask] : tiles) {
    ref.entries.emplace_back(key.first, key.second, mask);
    for (uint32_t a = 0; a < 8; ++a) {
      if ((mask >> (4 * a)) & 0xf) ++ref.active_rows;
    }
  }
  return ref;
}

void expect_matches_reference(const Topology& topo,
                              std::span<const Vec3> pos, const Box& box,
                              double cutoff, double skin) {
  const ReferenceTiles ref = reference_tiles(topo, pos, box, cutoff + skin);
  ASSERT_FALSE(ref.entries.empty());
  for (size_t lanes : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << lanes << " lanes");
    auto runtime = util::TaskRuntime::create(lanes);
    NeighborList list(topo, cutoff, skin, /*cluster_mode=*/true);
    list.set_execution(runtime);
    list.build(pos, box);
    const ff::ClusterPairList& cl = list.clusters();
    EXPECT_EQ(cl.atoms, ref.atoms);
    ASSERT_EQ(cl.slot_types.size(), ref.atoms.size());
    ASSERT_EQ(cl.slot_charges.size(), ref.atoms.size());
    for (size_t s = 0; s < ref.atoms.size(); ++s) {
      const uint32_t atom = ref.atoms[s];
      const bool pad = atom == ff::kPadAtom;
      EXPECT_EQ(cl.slot_types[s], pad ? 0u : topo.type_ids()[atom]) << s;
      EXPECT_EQ(cl.slot_charges[s], pad ? 0.0 : topo.charges()[atom]) << s;
    }
    std::vector<std::tuple<uint32_t, uint32_t, uint64_t>> entries;
    for (const auto& e : cl.entries) entries.emplace_back(e.ci, e.cj, e.mask);
    EXPECT_EQ(entries, ref.entries);
    EXPECT_EQ(cl.real_pairs, ref.pairs.size());
    EXPECT_EQ(cl.active_rows, ref.active_rows);

    NeighborList pair_list(topo, cutoff, skin, /*cluster_mode=*/false);
    pair_list.set_execution(runtime);
    pair_list.build(pos, box);
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    for (const auto& p : pair_list.pairs()) pairs.emplace_back(p.i, p.j);
    EXPECT_EQ(pairs, ref.pairs);
  }
}

// The cluster search against the O(N^2) reference, entry for entry, at 1
// and 4 lanes: exclusions (rigid water, virtual sites, 1-4 pairs), a box
// only 2 reach cells wide, a non-cubic box, empty grid cells, and positions
// shifted by whole box edges, negative, and on fine-grid cell boundaries.
TEST(NeighborListTest, TilesMatchBruteForceReference) {
  {
    SCOPED_TRACE("rigid3 water");
    auto spec = build_water_box(216, WaterModel::kRigid3Site, 5);
    expect_matches_reference(spec.topology, spec.positions, spec.box, 6.0,
                             1.5);
  }
  {
    SCOPED_TRACE("rigid4 water");
    auto spec = build_water_box(216, WaterModel::kRigid4Site, 5);
    expect_matches_reference(spec.topology, spec.positions, spec.box, 6.0,
                             1.0);
  }
  {
    SCOPED_TRACE("polymer in solvent");
    auto spec = build_polymer_in_solvent(20, 125);
    ASSERT_FALSE(spec.topology.pairs14().empty());
    expect_matches_reference(spec.topology, spec.positions, spec.box, 8.0,
                             1.0);
  }
  auto lj = build_lj_fluid(512, 0.021, 3);
  {
    SCOPED_TRACE("512-atom LJ, 2 reach cells per axis");
    ASSERT_LT(lj.box.min_edge() / (8.5 + 2.0), 3.0);
    expect_matches_reference(lj.topology, lj.positions, lj.box, 8.5, 2.0);
  }
  {
    SCOPED_TRACE("non-cubic box");
    const Vec3 s{1.3, 0.95, 1.1};
    const Vec3 e = lj.box.edges();
    const Box box(e.x * s.x, e.y * s.y, e.z * s.z);
    auto pos = lj.positions;
    for (auto& p : pos) p = Vec3{p.x * s.x, p.y * s.y, p.z * s.z};
    expect_matches_reference(lj.topology, pos, box, 7.0, 1.5);
  }
  {
    SCOPED_TRACE("atoms in one half of the box, empty cells in the other");
    auto pos = lj.positions;
    for (auto& p : pos) p.x = lj.box.wrap(p).x * 0.5;
    expect_matches_reference(lj.topology, pos, lj.box, 8.5, 2.0);
  }
  {
    SCOPED_TRACE("shifted, negative and cell-boundary positions");
    const Vec3 e = lj.box.edges();
    const double cell = e.x / 4.0;  // 512 atoms at 8 per cell: 4 per axis
    auto pos = lj.positions;
    for (size_t i = 0; i < pos.size(); ++i) {
      const double k = static_cast<double>(static_cast<int>(i % 7) - 3);
      pos[i] += Vec3{k * e.x, -k * e.y, (i % 2 ? 2.0 : -1.0) * e.z};
      if (i % 5 == 0) pos[i].x = std::round(pos[i].x / cell) * cell;
      if (i % 11 == 0) pos[i].y = 0.0;
      if (i % 13 == 0) pos[i].z = -e.z;
    }
    expect_matches_reference(lj.topology, pos, lj.box, 8.5, 2.0);
  }
}

// A NaN, infinite or astronomically far coordinate is binned by a clamped
// cell index (no undefined integer cast), and the corrupt atom takes part
// in no pair; the list stays identical at 1 and 4 lanes.
TEST(NeighborListTest, CorruptCoordinateBuildsIdenticallyAtAnyLaneCount) {
  auto spec = build_water_box(216, WaterModel::kRigid3Site, 5);
  auto pos = spec.positions;
  const std::set<uint32_t> corrupt = {7, 100, 200, 300};
  pos[7].x = std::numeric_limits<double>::quiet_NaN();
  pos[100].y = 1e300;
  pos[200].z = -1e300;
  pos[300].x = std::numeric_limits<double>::infinity();

  NeighborList serial(spec.topology, 6.0, 1.5, /*cluster_mode=*/true);
  serial.build(pos, spec.box);
  NeighborList parallel(spec.topology, 6.0, 1.5, /*cluster_mode=*/true);
  parallel.set_execution(util::TaskRuntime::create(4));
  parallel.build(pos, spec.box);

  const auto& a = serial.clusters();
  const auto& b = parallel.clusters();
  EXPECT_EQ(a.atoms, b.atoms);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  ASSERT_FALSE(a.entries.empty());
  for (size_t k = 0; k < a.entries.size(); ++k) {
    EXPECT_EQ(a.entries[k].ci, b.entries[k].ci);
    EXPECT_EQ(a.entries[k].cj, b.entries[k].cj);
    EXPECT_EQ(a.entries[k].mask, b.entries[k].mask);
  }
  EXPECT_EQ(a.real_pairs, b.real_pairs);
  EXPECT_EQ(a.active_rows, b.active_rows);
  for (const auto& e : a.entries) {
    for (uint64_t m = e.mask; m != 0; m &= m - 1) {
      const auto bit = static_cast<unsigned>(std::countr_zero(m));
      EXPECT_FALSE(corrupt.count(a.atoms[e.ci * a.width + bit / 4]));
      EXPECT_FALSE(corrupt.count(a.atoms[e.cj * 4 + bit % 4]));
    }
  }
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

// A NaN coordinate is a violation, not a converged constraint: every stage
// throws instead of spreading it, on the calling thread and from a worker.
TEST(ConstraintSolver, NanCoordinateIsAViolation) {
  // 216 clusters make several chunks, so 4 lanes fan out.
  auto spec = build_water_box(216, WaterModel::kRigid3Site);
  std::vector<Vec3> poisoned = spec.positions;
  poisoned[601].x = std::numeric_limits<double>::quiet_NaN();
  const md::ConstraintSolver shake(spec.topology);
  const md::ConstraintSolver mshake(spec.topology, 1e-8, 500,
                                    md::ConstraintAlgorithm::kMShake);
  EXPECT_TRUE(std::isnan(shake.max_violation(poisoned, spec.box)));
  for (size_t lanes : {1, 4}) {
    auto runtime = util::TaskRuntime::create(lanes);
    for (const md::ConstraintSolver* solver : {&shake, &mshake}) {
      std::vector<Vec3> pos = poisoned;
      std::vector<Vec3> vel(pos.size(), Vec3{});
      EXPECT_THROW(solver->apply_positions(spec.positions, pos, vel, 0.01,
                                           spec.box, runtime.get()),
                   NumericalError)
          << lanes << " lanes";
    }
    std::vector<Vec3> vel(poisoned.size(), Vec3{0.01, -0.02, 0.03});
    EXPECT_THROW(
        shake.apply_velocities(poisoned, vel, spec.box, runtime.get()),
        NumericalError)
        << lanes << " lanes";
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

  for (auto [spec, model, kernel] :
       {std::tuple{&lj, lj_model, ff::NonbondedKernel::kCluster},
        std::tuple{&water, water_model, ff::NonbondedKernel::kCluster},
        std::tuple{&water, water_model, ff::NonbondedKernel::kPair}}) {
    SCOPED_TRACE(testing::Message() << spec->topology.atom_count()
                                    << " atoms, " << ff::to_string(kernel)
                                    << " kernel");
    ForceField field(spec->topology, model);
    SimulationConfig cfg = nve_config(1.0);
    cfg.nonbonded_kernel = kernel;
    Simulation sim(field, spec->positions, spec->box, cfg);
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
