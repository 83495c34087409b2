#include "md/constraints.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>

#include "util/error.hpp"

namespace antmd::md {

ConstraintSolver::ConstraintSolver(const Topology& topo, double tolerance,
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

ConstraintStats ConstraintSolver::apply_positions(std::span<const Vec3> before,
                                                  std::span<Vec3> positions,
                                                  std::span<Vec3> velocities,
                                                  double dt,
                                                  const Box& box) const {
  if (algorithm_ == ConstraintAlgorithm::kMShake) {
    return apply_mshake(before, positions, velocities, dt, box);
  }
  return apply_shake(before, positions, velocities, dt, box);
}

size_t ConstraintSolver::shake_cluster(const Cluster& cluster,
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

ConstraintStats ConstraintSolver::apply_shake(std::span<const Vec3> before,
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

ConstraintStats ConstraintSolver::apply_mshake(std::span<const Vec3> before,
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

void ConstraintSolver::apply_velocities(std::span<const Vec3> positions,
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

double ConstraintSolver::max_violation(std::span<const Vec3> positions,
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

}  // namespace antmd::md
