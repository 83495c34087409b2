// Tests for Gaussian Split Ewald: agreement with the direct k-space sum,
// the NaCl Madelung constant, force correctness, and corrections.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "ewald/gse.hpp"
#include "ff/nonbonded.hpp"
#include "math/rng.hpp"
#include "math/units.hpp"
#include "topo/builders.hpp"
#include "util/task_graph.hpp"

namespace antmd {
namespace {

/// Total Ewald electrostatic energy: real-space erfc loop over all pairs
/// (all images within cutoff) + reciprocal part from `solver`.
double total_ewald_energy(const GseSolver& solver, const Box& box,
                          std::span<const Vec3> pos,
                          std::span<const double> charges, double cutoff) {
  double beta = solver.params().beta;
  double real = 0.0;
  int shells = static_cast<int>(std::ceil(cutoff / box.min_edge()));
  for (size_t i = 0; i < pos.size(); ++i) {
    for (size_t j = i + 1; j < pos.size(); ++j) {
      for (int sx = -shells; sx <= shells; ++sx) {
        for (int sy = -shells; sy <= shells; ++sy) {
          for (int sz = -shells; sz <= shells; ++sz) {
            Vec3 shift{sx * box.edges().x, sy * box.edges().y,
                       sz * box.edges().z};
            double r = norm(pos[i] - pos[j] + shift);
            if (r < cutoff) {
              real += units::kCoulomb * charges[i] * charges[j] *
                      std::erfc(beta * r) / r;
            }
          }
        }
      }
    }
  }
  // Same-particle images.
  for (size_t i = 0; i < pos.size(); ++i) {
    for (int sx = -shells; sx <= shells; ++sx) {
      for (int sy = -shells; sy <= shells; ++sy) {
        for (int sz = -shells; sz <= shells; ++sz) {
          if (sx == 0 && sy == 0 && sz == 0) continue;
          Vec3 shift{sx * box.edges().x, sy * box.edges().y,
                     sz * box.edges().z};
          double r = norm(shift);
          if (r < cutoff) {
            real += 0.5 * units::kCoulomb * charges[i] * charges[i] *
                    std::erfc(beta * r) / r;
          }
        }
      }
    }
  }

  ForceResult recip(pos.size());
  solver.compute(pos, charges, {}, box, recip);
  return real + recip.energy.coulomb_kspace.value() +
         recip.energy.coulomb_self.value();
}

TEST(Gse, MadelungConstantNaCl) {
  // Rock-salt lattice: 8 ions in a 2a-cube (a = nearest-neighbour distance).
  const double a = 2.8;
  Box box = Box::cubic(2.0 * a);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int z = 0; z < 2; ++z) {
        pos.push_back(Vec3{x * a, y * a, z * a});
        charges.push_back(((x + y + z) % 2 == 0) ? 1.0 : -1.0);
      }
    }
  }
  GseParams params;
  params.beta = 0.9;          // sharp split: small real-space cutoff works
  params.grid_spacing = 0.25; // fine grid for a tight lattice
  GseSolver solver(box, params);
  double energy = total_ewald_energy(solver, box, pos, charges, 11.0);

  // Madelung: lattice energy per ion pair = -M kC q²/a with M = 1.747565,
  // so per ion it is -M kC/(2a).
  double per_ion = energy / 8.0;
  EXPECT_NEAR(per_ion, -1.747565 * units::kCoulomb / (2.0 * a), 0.35)
      << "per-ion Madelung energy";
}

TEST(Gse, MatchesDirectKspaceSum) {
  // Random small charge cloud; compare grid GSE against the O(N·K) sum.
  Box box = Box::cubic(16.0);
  SequentialRng rng(5);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  double q_sum = 0;
  for (int i = 0; i < 20; ++i) {
    pos.push_back(Vec3{rng.uniform(0, 16), rng.uniform(0, 16),
                       rng.uniform(0, 16)});
    double q = (i % 2 == 0) ? 0.5 : -0.5;
    charges.push_back(q);
    q_sum += q;
  }
  ASSERT_EQ(q_sum, 0.0);

  GseParams params;
  params.beta = 0.4;
  params.grid_spacing = 0.5;
  GseSolver solver(box, params);

  ForceResult grid_result(20);
  solver.compute(pos, charges, {}, box, grid_result);
  ForceResult ref_result(20);
  GseSolver::compute_reference(pos, charges, {}, box, params.beta, 12,
                               ref_result);

  double e_grid = grid_result.energy.coulomb_kspace.value();
  double e_ref = ref_result.energy.coulomb_kspace.value();
  EXPECT_NEAR(e_grid, e_ref, 0.02 * std::abs(e_ref) + 0.05);

  // Self terms identical.
  EXPECT_NEAR(grid_result.energy.coulomb_self.value(),
              ref_result.energy.coulomb_self.value(), 1e-9);

  // Forces agree atom by atom.
  for (size_t i = 0; i < 20; ++i) {
    Vec3 fg = grid_result.forces.force(i);
    Vec3 fr = ref_result.forces.force(i);
    double scale = std::max(1.0, norm(fr));
    EXPECT_NEAR(fg.x, fr.x, 0.05 * scale) << i;
    EXPECT_NEAR(fg.y, fr.y, 0.05 * scale) << i;
    EXPECT_NEAR(fg.z, fr.z, 0.05 * scale) << i;
  }
}

TEST(Gse, ReferenceForcesMatchFiniteDifferenceOfEnergy) {
  // The direct k-space sum is a smooth function of positions (no grid), so
  // its forces must match finite differences exactly; the grid solver is
  // separately pinned to the reference in MatchesDirectKspaceSum.  (The
  // grid energy itself has tiny C⁰ discontinuities where the truncated
  // spreading stencil shifts cells, which makes naive FD on it meaningless.)
  Box box = Box::cubic(12.0);
  std::vector<Vec3> pos = {{3, 3, 3}, {6, 4, 3}, {4, 7, 5}, {8, 8, 8}};
  std::vector<double> charges = {1.0, -1.0, 0.5, -0.5};
  const double beta = 0.45;
  const int kmax = 10;

  auto energy = [&](const std::vector<Vec3>& p) {
    ForceResult r(4);
    GseSolver::compute_reference(p, charges, {}, box, beta, kmax, r);
    return r.energy.coulomb_kspace.value() + r.energy.coulomb_self.value();
  };

  ForceResult out(4);
  GseSolver::compute_reference(pos, charges, {}, box, beta, kmax, out);

  const double h = 1e-4;
  for (size_t a = 0; a < 4; ++a) {
    for (int d = 0; d < 3; ++d) {
      auto p = pos;
      p[a][d] += h;
      double ep = energy(p);
      p[a][d] -= 2 * h;
      double em = energy(p);
      double fd = -(ep - em) / (2 * h);
      EXPECT_NEAR(out.forces.force(a)[d], fd,
                  0.005 * std::max(1.0, std::abs(fd)))
          << "atom " << a << " dim " << d;
    }
  }
}

TEST(Gse, GridForcesTrackReferenceAcrossParameters) {
  Box box = Box::cubic(12.0);
  std::vector<Vec3> pos = {{3, 3, 3}, {6, 4, 3}, {4, 7, 5}, {8, 8, 8}};
  std::vector<double> charges = {1.0, -1.0, 0.5, -0.5};
  for (double beta : {0.35, 0.45}) {
    GseParams params;
    params.beta = beta;
    params.grid_spacing = 0.4;
    GseSolver solver(box, params);
    ForceResult grid(4), ref(4);
    solver.compute(pos, charges, {}, box, grid);
    GseSolver::compute_reference(pos, charges, {}, box, beta, 12, ref);
    for (size_t a = 0; a < 4; ++a) {
      double scale = std::max(1.0, norm(ref.forces.force(a)));
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(grid.forces.force(a)[d], ref.forces.force(a)[d],
                    0.05 * scale)
            << "beta " << beta << " atom " << a << " dim " << d;
      }
    }
  }
}

TEST(Gse, NetForceIsSmall) {
  // Reciprocal forces should sum to ~0 (exact in continuum; grid gives
  // small residual).
  Box box = Box::cubic(14.0);
  SequentialRng rng(77);
  std::vector<Vec3> pos;
  std::vector<double> charges;
  for (int i = 0; i < 30; ++i) {
    pos.push_back(Vec3{rng.uniform(0, 14), rng.uniform(0, 14),
                       rng.uniform(0, 14)});
    charges.push_back(i % 2 == 0 ? 0.4 : -0.4);
  }
  GseParams params;
  params.beta = 0.4;
  params.grid_spacing = 0.5;
  GseSolver solver(box, params);
  ForceResult out(30);
  solver.compute(pos, charges, {}, box, out);
  Vec3 total{};
  double fmax = 0;
  for (size_t i = 0; i < 30; ++i) {
    total += out.forces.force(i);
    fmax = std::max(fmax, norm(out.forces.force(i)));
  }
  EXPECT_LT(norm(total), 0.02 * fmax * 30);
}

TEST(Gse, ExclusionCorrectionCancelsReciprocalPair) {
  // Two opposite charges very close: with the pair excluded, the total
  // k-space + corrections energy must equal the isolated-pair k-space
  // energy minus erf/r — i.e. adding the exclusion changes the energy by
  // exactly -kC q1 q2 erf(βr)/r.
  Box box = Box::cubic(20.0);
  std::vector<Vec3> pos = {{10, 10, 10}, {11.0, 10, 10}};
  std::vector<double> charges = {0.8, -0.8};
  GseParams params;
  params.beta = 0.4;
  params.grid_spacing = 0.5;
  GseSolver solver(box, params);

  ForceResult plain(2), excluded(2);
  solver.compute(pos, charges, {}, box, plain);
  std::vector<std::pair<uint32_t, uint32_t>> excl = {{0, 1}};
  solver.compute(pos, charges, excl, box, excluded);

  double r = 1.0;
  double delta = -units::kCoulomb * charges[0] * charges[1] *
                 std::erf(params.beta * r) / r;
  double measured =
      (excluded.energy.coulomb_kspace.value() +
       excluded.energy.coulomb_self.value()) -
      (plain.energy.coulomb_kspace.value() +
       plain.energy.coulomb_self.value());
  EXPECT_NEAR(measured, delta, 1e-9);
}

TEST(Gse, ChargedSystemGetsBackgroundTerm) {
  Box box = Box::cubic(15.0);
  std::vector<Vec3> pos = {{5, 5, 5}};
  std::vector<double> charges = {1.0};
  GseParams params;
  params.beta = 0.4;
  params.grid_spacing = 0.5;
  GseSolver solver(box, params);
  ForceResult out(1);
  solver.compute(pos, charges, {}, box, out);
  double expected_bg = -units::kCoulomb * M_PI /
                       (2 * params.beta * params.beta * box.volume());
  double expected_self = -units::kCoulomb * params.beta / std::sqrt(M_PI);
  EXPECT_NEAR(out.energy.coulomb_self.value(), expected_bg + expected_self,
              1e-9);
}

TEST(Gse, GridSizesArePow2AndRebuildTracksBox) {
  GseParams params;
  params.grid_spacing = 1.0;
  GseSolver solver(Box(20, 40, 10), params);
  EXPECT_EQ(solver.nx(), 32u);
  EXPECT_EQ(solver.ny(), 64u);
  EXPECT_EQ(solver.nz(), 16u);
  solver.rebuild(Box::cubic(50));
  EXPECT_EQ(solver.nx(), 64u);
}

TEST(Gse, WorkloadReportsSensibleNumbers) {
  GseParams params;
  GseSolver solver(Box::cubic(32), params);
  auto w = solver.workload(1000);
  EXPECT_EQ(w.grid_points, solver.nx() * solver.ny() * solver.nz());
  EXPECT_GT(w.spread_stencil_points, 26u);
  EXPECT_EQ(w.charges, 1000u);
  EXPECT_GT(w.fft_flops, 0.0);
}

TEST(Gse, WaterBoxTotalElectrostaticsIsCohesive) {
  auto spec = build_water_box(64, WaterModel::kRigid3Site);
  GseParams params;
  params.beta = 0.35;
  GseSolver solver(spec.box, params);
  ForceResult out(spec.topology.atom_count());
  solver.compute(spec.positions, spec.topology.charges(),
                 spec.topology.excluded_pairs(), spec.box, out);
  EXPECT_TRUE(std::isfinite(out.energy.coulomb_kspace.value()));
  EXPECT_GT(out.energy.coulomb_kspace.value(), 0.0);  // recip part positive
  EXPECT_LT(out.energy.coulomb_self.value(), 0.0);    // self/excl negative
}

// --- staged pipeline: bit identity at any lane count -----------------------

struct StagedCase {
  std::string name;
  Box box;
  GseParams params;
  std::vector<Vec3> pos;
  std::vector<double> charges;
  std::vector<std::pair<uint32_t, uint32_t>> excluded;
};

/// Random charges plus the positions that stress the stencil arithmetic:
/// exactly on grid planes, on and just inside the box edge (where
/// floor(r/h) can reach n), negative coordinates, and zero charges.
StagedCase make_case(std::string name, Box box, GseParams params,
                     uint64_t seed) {
  StagedCase c{std::move(name), box, params, {}, {}, {}};
  const GseSolver solver(box, params);
  const Vec3 e = box.edges();
  const Vec3 h{e.x / static_cast<double>(solver.nx()),
               e.y / static_cast<double>(solver.ny()),
               e.z / static_cast<double>(solver.nz())};
  SequentialRng rng(seed);
  for (int i = 0; i < 40; ++i) {
    c.pos.push_back(Vec3{rng.uniform(0, e.x), rng.uniform(0, e.y),
                         rng.uniform(0, e.z)});
  }
  c.pos.push_back(Vec3{3 * h.x, 5 * h.y, 1 * h.z});  // on grid planes
  c.pos.push_back(Vec3{0.0, 0.0, 0.0});
  c.pos.push_back(e);  // the far corner wraps onto the origin
  c.pos.push_back(Vec3{std::nextafter(e.x, 0.0), std::nextafter(e.y, 0.0),
                       std::nextafter(e.z, 0.0)});
  c.pos.push_back(Vec3{-0.0, -2.5 * h.y, -e.z - 0.3});  // negative
  c.pos.push_back(Vec3{-3.7, e.y + 1.1, -7 * h.z});
  for (size_t i = 0; i < c.pos.size(); ++i) {
    // Every seventh atom carries no charge; the rest alternate in sign.
    c.charges.push_back(i % 7 == 3 ? 0.0 : (i % 2 == 0 ? 0.6 : -0.55));
  }
  c.excluded = {{0, 1}, {2, 3}, {3, 10}, {41, 42}};
  return c;
}

std::vector<StagedCase> staged_cases() {
  std::vector<StagedCase> cases;
  GseParams p;
  p.beta = 0.4;
  p.grid_spacing = 1.0;
  cases.push_back(make_case("non_cubic", Box(20, 40, 10), p, 3));
  // Grid dimensions are powers of two and a stencil is odd, so the tightest
  // legal fit is 2·support+1 == min(nx, ny, nz) - 1: here 7 on an 8-grid.
  p.beta = 0.6;
  cases.push_back(make_case("tight_stencil", Box::cubic(8.0), p, 5));
  // The smallest legal grid: 4 planes along z with a 3-point stencil.
  p.beta = 0.8;
  p.grid_spacing = 2.5;
  cases.push_back(make_case("four_planes", Box(20, 40, 10), p, 7));
  return cases;
}

/// Runs the stage DAG on a `lanes`-lane runtime.  The graph runs twice
/// (each run allocates its own workspace) and a skipped run in between
/// must leave the output alone.
ForceResult run_staged(const GseSolver& solver, const StagedCase& c,
                       size_t lanes) {
  ForceResult out(c.pos.size());
  bool due = true;
  util::TaskGraph graph(util::TaskRuntime::create(lanes), "ewald_test.gse");
  solver.append_stages(graph, [&]() -> std::optional<GseInput> {
    if (!due) return std::nullopt;
    out.reset(c.pos.size());
    return GseInput{c.pos, c.charges, c.excluded, c.box, &out};
  });
  graph.run();
  due = false;
  graph.run();
  due = true;
  graph.run();
  return out;
}

TEST(GseStages, BitIdenticalToSerialAtAnyLaneCount) {
  for (const StagedCase& c : staged_cases()) {
    const GseSolver solver(c.box, c.params);
    ForceResult serial(c.pos.size());
    solver.compute(c.pos, c.charges, c.excluded, c.box, serial);
    ASSERT_NE(serial.energy.coulomb_kspace.raw(), 0) << c.name;
    for (size_t lanes : {1u, 2u, 4u, 8u}) {
      const ForceResult staged = run_staged(solver, c, lanes);
      const std::string where =
          c.name + " at " + std::to_string(lanes) + " lanes";
      EXPECT_EQ(staged.energy.coulomb_kspace.raw(),
                serial.energy.coulomb_kspace.raw())
          << where;
      EXPECT_EQ(staged.energy.coulomb_self.raw(),
                serial.energy.coulomb_self.raw())
          << where;
      for (size_t i = 0; i < c.pos.size(); ++i) {
        EXPECT_EQ(staged.forces.quanta(i), serial.forces.quanta(i))
            << where << ", atom " << i;
      }
      for (int k = 0; k < 9; ++k) {
        EXPECT_EQ(std::bit_cast<uint64_t>(staged.virial.m[k]),
                  std::bit_cast<uint64_t>(serial.virial.m[k]))
            << where << ", virial component " << k;
      }
    }
  }
}

TEST(GseStages, CasesCoverTheGridEdges) {
  const std::vector<StagedCase> cases = staged_cases();
  const GseSolver tight(cases[1].box, cases[1].params);
  EXPECT_EQ(tight.nx(), 8u);
  EXPECT_EQ(tight.workload(1).spread_stencil_points, 7u * 7u * 7u);
  const GseSolver smallest(cases[2].box, cases[2].params);
  EXPECT_EQ(smallest.nz(), 4u);
  EXPECT_EQ(smallest.workload(1).spread_stencil_points, 3u * 3u * 3u);
}

}  // namespace
}  // namespace antmd
