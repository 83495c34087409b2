// Tests for the M-SHAKE (per-cluster Newton) constraint solver and its
// ablation against classic SHAKE sweeps, and for the solver's lane-count
// invariance and bit identity with its unhoisted serial form.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>

#include "ff/forcefield.hpp"
#include "math/rng.hpp"
#include "math/units.hpp"
#include "md/constraints.hpp"
#include "md/simulation.hpp"
#include "md/state.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"
#include "util/task_graph.hpp"

namespace antmd::md {
namespace {

// The solver before its clusters fanned out over chunks and its per-sweep
// invariants were hoisted, transcribed verbatim apart from the class name:
// serial, one cluster after another, every reference vector, inverse mass
// and minimum image recomputed per sweep.  ConstraintSolver must match it
// bit for bit on every finite state.
class ReferenceSolver {
 public:
  ReferenceSolver(const Topology& topo, double tolerance = 1e-8,
                  size_t max_iterations = 500,
                  ConstraintAlgorithm algorithm = ConstraintAlgorithm::kShake);

  ConstraintStats apply_positions(std::span<const Vec3> before,
                                  std::span<Vec3> positions,
                                  std::span<Vec3> velocities, double dt,
                                  const Box& box) const;
  void apply_velocities(std::span<const Vec3> positions,
                        std::span<Vec3> velocities, const Box& box) const;
  [[nodiscard]] double max_violation(std::span<const Vec3> positions,
                                     const Box& box) const;

 private:
  struct Cluster {
    std::vector<DistanceConstraint> constraints;
  };

  size_t shake_cluster(const Cluster& cluster, std::span<const Vec3> before,
                       std::span<Vec3> positions, std::span<Vec3> velocities,
                       double dt, const Box& box) const;
  ConstraintStats apply_shake(std::span<const Vec3> before,
                              std::span<Vec3> positions,
                              std::span<Vec3> velocities, double dt,
                              const Box& box) const;
  ConstraintStats apply_mshake(std::span<const Vec3> before,
                               std::span<Vec3> positions,
                               std::span<Vec3> velocities, double dt,
                               const Box& box) const;

  const Topology* topo_;
  double tolerance_;
  size_t max_iterations_;
  ConstraintAlgorithm algorithm_;
  std::vector<Cluster> clusters_;
};

ReferenceSolver::ReferenceSolver(const Topology& topo, double tolerance,
                                   size_t max_iterations,
                                   ConstraintAlgorithm algorithm)
    : topo_(&topo),
      tolerance_(tolerance),
      max_iterations_(max_iterations),
      algorithm_(algorithm) {
  // Union-find over constraint endpoints to form clusters.
  const auto& cons = topo.constraints();
  if (cons.empty()) return;

  std::map<uint32_t, uint32_t> parent;
  std::function<uint32_t(uint32_t)> find = [&](uint32_t x) {
    auto it = parent.find(x);
    if (it == parent.end() || it->second == x) return x;
    uint32_t root = find(it->second);
    parent[x] = root;
    return root;
  };
  auto unite = [&](uint32_t a, uint32_t b) {
    uint32_t ra = find(a), rb = find(b);
    parent.try_emplace(ra, ra);
    parent.try_emplace(rb, rb);
    if (ra != rb) parent[rb] = ra;
  };
  for (const auto& c : cons) unite(c.i, c.j);

  std::map<uint32_t, size_t> root_to_cluster;
  for (const auto& c : cons) {
    uint32_t root = find(c.i);
    auto [it, inserted] =
        root_to_cluster.try_emplace(root, clusters_.size());
    if (inserted) clusters_.emplace_back();
    clusters_[it->second].constraints.push_back(c);
  }
}

ConstraintStats ReferenceSolver::apply_positions(std::span<const Vec3> before,
                                                  std::span<Vec3> positions,
                                                  std::span<Vec3> velocities,
                                                  double dt,
                                                  const Box& box) const {
  if (algorithm_ == ConstraintAlgorithm::kMShake) {
    return apply_mshake(before, positions, velocities, dt, box);
  }
  return apply_shake(before, positions, velocities, dt, box);
}

size_t ReferenceSolver::shake_cluster(const Cluster& cluster,
                                       std::span<const Vec3> before,
                                       std::span<Vec3> positions,
                                       std::span<Vec3> velocities, double dt,
                                       const Box& box) const {
  const auto& masses = topo_->masses();
  size_t sweeps = 0;
  for (size_t iter = 0; iter < max_iterations_; ++iter) {
    double worst = 0.0;
    for (const auto& c : cluster.constraints) {
      Vec3 d = box.min_image(positions[c.i], positions[c.j]);
      double r2 = norm2(d);
      double diff = r2 - c.r0 * c.r0;
      worst = std::max(worst, std::abs(std::sqrt(r2) - c.r0) / c.r0);
      if (std::abs(diff) < 2.0 * tolerance_ * c.r0 * c.r0) continue;

      // Classic SHAKE update along the *reference* bond direction.
      Vec3 s = box.min_image(before[c.i], before[c.j]);
      double inv_mi = 1.0 / masses[c.i];
      double inv_mj = 1.0 / masses[c.j];
      double denom = 2.0 * (inv_mi + inv_mj) * dot(s, d);
      if (std::abs(denom) < 1e-12) denom = std::copysign(1e-12, denom);
      double g = diff / denom;
      Vec3 corr = g * s;
      positions[c.i] -= inv_mi * corr;
      positions[c.j] += inv_mj * corr;
      if (dt > 0.0) {
        velocities[c.i] -= (inv_mi / dt) * corr;
        velocities[c.j] += (inv_mj / dt) * corr;
      }
    }
    ++sweeps;
    if (worst < tolerance_) break;
    if (iter + 1 >= max_iterations_) {
      throw NumericalError(
          "SHAKE failed to converge — system is likely unstable");
    }
  }
  return sweeps;
}

ConstraintStats ReferenceSolver::apply_shake(std::span<const Vec3> before,
                                              std::span<Vec3> positions,
                                              std::span<Vec3> velocities,
                                              double dt,
                                              const Box& box) const {
  ConstraintStats stats;
  for (const Cluster& cluster : clusters_) {
    stats.iterations +=
        shake_cluster(cluster, before, positions, velocities, dt, box);
  }
  stats.max_violation = max_violation(positions, box);
  return stats;
}


namespace {

/// Solves the dense n×n system A x = b in place by Gaussian elimination
/// with partial pivoting (clusters are tiny: water is 3×3).
bool solve_dense(std::vector<double>& a, std::vector<double>& b, size_t n) {
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    }
    if (std::abs(a[pivot * n + col]) < 1e-14) return false;
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    double inv = 1.0 / a[col * n + col];
    for (size_t r = col + 1; r < n; ++r) {
      double f = a[r * n + col] * inv;
      if (f == 0.0) continue;
      for (size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  for (size_t col = n; col-- > 0;) {
    double sum = b[col];
    for (size_t c = col + 1; c < n; ++c) sum -= a[col * n + c] * b[c];
    b[col] = sum / a[col * n + col];
  }
  return true;
}

}  // namespace

ConstraintStats ReferenceSolver::apply_mshake(std::span<const Vec3> before,
                                               std::span<Vec3> positions,
                                               std::span<Vec3> velocities,
                                               double dt,
                                               const Box& box) const {
  ConstraintStats stats;
  const auto& masses = topo_->masses();
  // Clusters larger than this fall back to Gauss–Seidel sweeps (the dense
  // solve stops paying off).
  constexpr size_t kMaxDense = 12;

  for (const Cluster& cluster : clusters_) {
    const size_t n = cluster.constraints.size();
    if (n > kMaxDense) {
      stats.iterations +=
          shake_cluster(cluster, before, positions, velocities, dt, box);
      continue;
    }

    // Reference bond vectors (pre-update geometry).
    std::vector<Vec3> s_ref(n);
    for (size_t c = 0; c < n; ++c) {
      const auto& con = cluster.constraints[c];
      s_ref[c] = box.min_image(before[con.i], before[con.j]);
    }

    std::vector<double> a(n * n), g(n);
    for (size_t iter = 0; iter < max_iterations_; ++iter) {
      // Residuals g_c = |r_c|² - d².
      double worst = 0.0;
      std::vector<Vec3> r_cur(n);
      for (size_t c = 0; c < n; ++c) {
        const auto& con = cluster.constraints[c];
        r_cur[c] = box.min_image(positions[con.i], positions[con.j]);
        g[c] = norm2(r_cur[c]) - con.r0 * con.r0;
        worst = std::max(worst,
                         std::abs(std::sqrt(norm2(r_cur[c])) - con.r0) /
                             con.r0);
      }
      ++stats.iterations;
      if (worst < tolerance_) break;
      if (iter + 1 >= max_iterations_) {
        throw NumericalError("M-SHAKE failed to converge");
      }

      // Jacobian A_{cd} = dg_c/dλ_d with the update
      // pos_i -= λ_d s_d / m_i, pos_j += λ_d s_d / m_j for constraint d.
      for (size_t c = 0; c < n; ++c) {
        const auto& cc = cluster.constraints[c];
        for (size_t d = 0; d < n; ++d) {
          const auto& cd = cluster.constraints[d];
          double w = 0.0;
          if (cc.i == cd.i) w += 1.0 / masses[cc.i];
          if (cc.i == cd.j) w -= 1.0 / masses[cc.i];
          if (cc.j == cd.i) w -= 1.0 / masses[cc.j];
          if (cc.j == cd.j) w += 1.0 / masses[cc.j];
          a[c * n + d] = 2.0 * w * dot(r_cur[c], s_ref[d]);
        }
      }
      std::vector<double> lambda = g;
      if (!solve_dense(a, lambda, n)) {
        // Degenerate geometry: one Gauss–Seidel style relaxation instead.
        for (size_t c = 0; c < n; ++c) {
          const auto& con = cluster.constraints[c];
          double inv_mi = 1.0 / masses[con.i];
          double inv_mj = 1.0 / masses[con.j];
          double denom = 2.0 * (inv_mi + inv_mj) * dot(s_ref[c], r_cur[c]);
          if (std::abs(denom) < 1e-12) denom = std::copysign(1e-12, denom);
          double lam = g[c] / denom;
          positions[con.i] -= inv_mi * lam * s_ref[c];
          positions[con.j] += inv_mj * lam * s_ref[c];
          if (dt > 0.0) {
            velocities[con.i] -= (inv_mi / dt) * lam * s_ref[c];
            velocities[con.j] += (inv_mj / dt) * lam * s_ref[c];
          }
        }
        continue;
      }
      for (size_t c = 0; c < n; ++c) {
        const auto& con = cluster.constraints[c];
        Vec3 corr = lambda[c] * s_ref[c];
        double inv_mi = 1.0 / masses[con.i];
        double inv_mj = 1.0 / masses[con.j];
        positions[con.i] -= inv_mi * corr;
        positions[con.j] += inv_mj * corr;
        if (dt > 0.0) {
          velocities[con.i] -= (inv_mi / dt) * corr;
          velocities[con.j] += (inv_mj / dt) * corr;
        }
      }
    }
  }
  stats.max_violation = max_violation(positions, box);
  return stats;
}

void ReferenceSolver::apply_velocities(std::span<const Vec3> positions,
                                        std::span<Vec3> velocities,
                                        const Box& box) const {
  const auto& masses = topo_->masses();
  for (const Cluster& cluster : clusters_) {
    for (size_t iter = 0; iter < max_iterations_; ++iter) {
      double worst = 0.0;
      for (const auto& c : cluster.constraints) {
        Vec3 d = box.min_image(positions[c.i], positions[c.j]);
        Vec3 dv = velocities[c.i] - velocities[c.j];
        double rv = dot(d, dv);
        double r2 = norm2(d);
        worst = std::max(worst, std::abs(rv) / (c.r0 * c.r0));
        double inv_mi = 1.0 / masses[c.i];
        double inv_mj = 1.0 / masses[c.j];
        double k = rv / (r2 * (inv_mi + inv_mj));
        velocities[c.i] -= k * inv_mi * d;
        velocities[c.j] += k * inv_mj * d;
      }
      if (worst < tolerance_) break;
      if (iter + 1 >= max_iterations_) {
        throw NumericalError("RATTLE velocity stage failed to converge");
      }
    }
  }
}

double ReferenceSolver::max_violation(std::span<const Vec3> positions,
                                       const Box& box) const {
  double worst = 0.0;
  for (const Cluster& cluster : clusters_) {
    for (const auto& c : cluster.constraints) {
      double r = norm(box.min_image(positions[c.i], positions[c.j]));
      worst = std::max(worst, std::abs(r - c.r0) / c.r0);
    }
  }
  return worst;
}



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

// `copies` of {rigid water, a 15-atom chain, rigid water}: 3·copies
// clusters, the chains' 14 constraints above M-SHAKE's dense limit.
std::vector<ClusterPiece> mixed_pieces(size_t copies) {
  std::vector<ClusterPiece> pieces;
  for (size_t k = 0; k < copies; ++k) {
    const Vec3 shift{0.7 * static_cast<double>(k % 8),
                     0.9 * static_cast<double>(k / 8 % 8),
                     1.1 * static_cast<double>(k / 64)};
    pieces.push_back(rigid_water(Vec3{2.0, 2.0, 2.0} + shift));
    pieces.push_back(constrained_chain(Vec3{2.0, 12.0, 2.0} + shift, 15));
    pieces.push_back(rigid_water(Vec3{8.0, 24.0, 8.0} + shift));
  }
  return pieces;
}

// Deterministic velocities for the RATTLE stage.
std::vector<Vec3> stirred(const std::vector<Vec3>& velocities) {
  std::vector<Vec3> out = velocities;
  for (size_t i = 0; i < out.size(); ++i) {
    const double k = static_cast<double>(i);
    out[i] += Vec3{0.02 * std::cos(0.9 * k), -0.03 * std::sin(1.7 * k),
                   0.01 * std::cos(2.3 * k + 0.2)};
  }
  return out;
}

bool same_bits(std::span<const Vec3> a, std::span<const Vec3> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Clusters share no atom, so each one ends as if solved alone — M-SHAKE
// densely up to 12 constraints, with SHAKE sweeps above — and the sweep
// count is the sum over clusters, whatever the runtime: 1, 2, 4 and 8
// lanes equal the null runtime bit for bit, in SHAKE, M-SHAKE and RATTLE.
TEST(MShake, EveryClusterEndsAsIfSolvedAlone) {
  const Box box = Box::cubic(40.0);
  // 210 clusters: four chunks.
  const std::vector<ClusterPiece> pieces = mixed_pieces(70);
  ASSERT_GT(pieces[1].constraints.size(), 12u);
  const double dt = 0.05;

  std::vector<Vec3> before;
  const Topology mixed = topology_of(pieces, before);
  const std::vector<Vec3> start = perturbed(before);
  for (ConstraintAlgorithm algorithm :
       {ConstraintAlgorithm::kShake, ConstraintAlgorithm::kMShake}) {
    SCOPED_TRACE(algorithm == ConstraintAlgorithm::kShake ? "SHAKE"
                                                          : "M-SHAKE");
    const ConstraintSolver solver(mixed, 1e-10, 500, algorithm);
    std::vector<Vec3> pos = start;
    std::vector<Vec3> vel(pos.size(), Vec3{});
    const ConstraintStats stats =
        solver.apply_positions(before, pos, vel, dt, box);
    const std::vector<Vec3> rattle_in = stirred(vel);
    std::vector<Vec3> rattled = rattle_in;
    solver.apply_velocities(pos, rattled, box);

    size_t iterations = 0;
    size_t offset = 0;
    for (const ClusterPiece& piece : pieces) {
      std::vector<Vec3> alone_before;
      const Topology alone = topology_of({piece}, alone_before);
      const ConstraintSolver alone_solver(
          alone, 1e-10, 500,
          piece.constraints.size() > 12 ? ConstraintAlgorithm::kShake
                                        : algorithm);
      const auto first = static_cast<std::ptrdiff_t>(offset);
      const auto last =
          static_cast<std::ptrdiff_t>(offset + alone_before.size());
      std::vector<Vec3> alone_pos(start.begin() + first, start.begin() + last);
      std::vector<Vec3> alone_vel(alone_pos.size(), Vec3{});
      iterations += alone_solver
                        .apply_positions(alone_before, alone_pos, alone_vel,
                                         dt, box)
                        .iterations;
      std::vector<Vec3> alone_rattled(rattle_in.begin() + first,
                                      rattle_in.begin() + last);
      alone_solver.apply_velocities(alone_pos, alone_rattled, box);
      for (size_t a = 0; a < alone_pos.size(); ++a) {
        EXPECT_EQ(pos[offset + a], alone_pos[a]) << "atom " << offset + a;
        EXPECT_EQ(vel[offset + a], alone_vel[a]) << "atom " << offset + a;
        EXPECT_EQ(rattled[offset + a], alone_rattled[a])
            << "atom " << offset + a;
      }
      offset += alone_pos.size();
    }
    EXPECT_EQ(stats.iterations, iterations);
    EXPECT_LT(stats.max_violation, 1e-9);

    for (size_t lanes : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::to_string(lanes) + " lanes");
      auto runtime = util::TaskRuntime::create(lanes);
      std::vector<Vec3> lane_pos = start;
      std::vector<Vec3> lane_vel(pos.size(), Vec3{});
      const ConstraintStats lane_stats = solver.apply_positions(
          before, lane_pos, lane_vel, dt, box, runtime.get());
      EXPECT_TRUE(same_bits(lane_pos, pos));
      EXPECT_TRUE(same_bits(lane_vel, vel));
      EXPECT_EQ(lane_stats.iterations, stats.iterations);
      EXPECT_TRUE(same_bits(lane_stats.max_violation, stats.max_violation));
      std::vector<Vec3> lane_rattled = rattle_in;
      solver.apply_velocities(lane_pos, lane_rattled, box, runtime.get());
      EXPECT_TRUE(same_bits(lane_rattled, rattled));
    }
  }
}

// The hoisted, chunked solver performs ReferenceSolver's operations in
// ReferenceSolver's order: SHAKE, M-SHAKE and RATTLE match it bit for bit
// on the canonical box drifted one step from a thermal state, on rigid4
// water and on the mixed topology, with and without the velocity update,
// serially and on 4 lanes.
TEST(MShake, HoistedSolverMatchesReferenceBitForBit) {
  struct Case {
    const char* name;
    Topology topology;
    Box box;
    double tolerance;
    double dt;
    std::vector<Vec3> before;
    std::vector<Vec3> drifted;
    std::vector<Vec3> velocities;
  };
  auto thermal_drift = [](const char* name, SystemSpec spec) {
    State state;
    state.positions = spec.positions;
    state.box = spec.box;
    init_velocities(spec.topology, 300.0, 7, state);
    const double dt = units::fs_to_internal(2.0);
    std::vector<Vec3> drifted = spec.positions;
    for (size_t i = 0; i < drifted.size(); ++i) {
      drifted[i] += dt * state.velocities[i];
    }
    return Case{name,          std::move(spec.topology), spec.box, 1e-8, dt,
                spec.positions, std::move(drifted),      state.velocities};
  };
  std::vector<Case> cases;
  cases.push_back(thermal_drift(
      "rigid3 4096", build_water_box(4096, WaterModel::kRigid3Site)));
  cases.push_back(thermal_drift(
      "rigid4 216", build_water_box(216, WaterModel::kRigid4Site)));
  {
    std::vector<Vec3> before;
    Topology mixed = topology_of(mixed_pieces(70), before);
    std::vector<Vec3> drifted = perturbed(before);
    std::vector<Vec3> vel = stirred(std::vector<Vec3>(before.size()));
    cases.push_back(Case{"mixed", std::move(mixed), Box::cubic(40.0), 1e-10,
                         0.05, std::move(before), std::move(drifted),
                         std::move(vel)});
  }

  auto runtime = util::TaskRuntime::create(4);
  for (const Case& c : cases) {
    for (double dt : {c.dt, 0.0}) {
      for (ConstraintAlgorithm algorithm :
           {ConstraintAlgorithm::kShake, ConstraintAlgorithm::kMShake}) {
        SCOPED_TRACE(std::string(c.name) + " dt " + std::to_string(dt) +
                     (algorithm == ConstraintAlgorithm::kShake ? " SHAKE"
                                                               : " M-SHAKE"));
        const ReferenceSolver reference(c.topology, c.tolerance, 500,
                                        algorithm);
        std::vector<Vec3> ref_pos = c.drifted;
        std::vector<Vec3> ref_vel = c.velocities;
        const ConstraintStats ref_stats = reference.apply_positions(
            c.before, ref_pos, ref_vel, dt, c.box);
        reference.apply_velocities(ref_pos, ref_vel, c.box);
        ASSERT_GT(ref_stats.iterations, 0u);

        const ConstraintSolver solver(c.topology, c.tolerance, 500,
                                      algorithm);
        EXPECT_TRUE(same_bits(solver.max_violation(c.drifted, c.box),
                              reference.max_violation(c.drifted, c.box)));
        for (util::TaskRuntime* lanes : {static_cast<util::TaskRuntime*>(
                                             nullptr),
                                         runtime.get()}) {
          std::vector<Vec3> pos = c.drifted;
          std::vector<Vec3> vel = c.velocities;
          const ConstraintStats stats =
              solver.apply_positions(c.before, pos, vel, dt, c.box, lanes);
          EXPECT_EQ(stats.iterations, ref_stats.iterations);
          EXPECT_TRUE(same_bits(stats.max_violation, ref_stats.max_violation));
          solver.apply_velocities(pos, vel, c.box, lanes);
          EXPECT_TRUE(same_bits(pos, ref_pos));
          EXPECT_TRUE(same_bits(vel, ref_vel));
        }
      }
    }
  }
}

}  // namespace
}  // namespace antmd::md
