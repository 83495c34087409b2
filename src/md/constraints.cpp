#include "md/constraints.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>

#include "util/error.hpp"

namespace antmd::md {

namespace {

using ClusterSpan = std::span<const DistanceConstraint>;

/// Clusters per chunk: 4,096 waters make 64 chunks of 64, enough grains for
/// work stealing to even out clusters that sweep more often than others.
constexpr size_t kMinChunkClusters = 64;
constexpr size_t kMaxChunks = 64;
/// M-SHAKE clusters larger than this fall back to SHAKE sweeps (the dense
/// solve stops paying off).
constexpr size_t kMaxDense = 12;

/// std::max that keeps a NaN from either side: std::max(worst, NaN) returns
/// worst, which would let a NaN constraint count as converged.
double nan_max(double a, double b) { return b > a || std::isnan(b) ? b : a; }

/// Box::min_image operation for operation, inline: the out-of-line call and
/// its nearbyint calls dominate a sweep otherwise (this file's -msse4.1
/// makes nearbyint one roundsd).
Vec3 min_image(const Vec3& a, const Vec3& b, const Vec3& edges) {
  Vec3 d = a - b;
  d.x -= std::nearbyint(d.x / edges.x) * edges.x;
  d.y -= std::nearbyint(d.y / edges.y) * edges.y;
  d.z -= std::nearbyint(d.z / edges.z) * edges.z;
  return d;
}

/// The cluster's largest relative violation at `positions`.
double violation(ClusterSpan cluster, std::span<const Vec3> positions,
                 const Vec3& edges) {
  double worst = 0.0;
  for (const auto& c : cluster) {
    double r = norm(min_image(positions[c.i], positions[c.j], edges));
    worst = nan_max(worst, std::abs(r - c.r0) / c.r0);
  }
  return worst;
}

/// Solves the dense n×n system A x = b in place by Gaussian elimination
/// with partial pivoting (clusters are tiny: water is 3×3).
bool solve_dense(double* a, double* b, size_t n) {
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

/// Solves the clusters of one chunk: the call's inputs, and scratch that
/// every cluster of the chunk reuses.  What does not change between sweeps
/// is computed once per cluster, by the same operations the sweep would
/// repeat.
class ChunkSolver {
 public:
  ChunkSolver(const std::vector<double>& masses, const Box& box,
              double tolerance, size_t max_iterations)
      : masses_(masses),
        edges_(box.edges()),
        tolerance_(tolerance),
        max_iterations_(max_iterations) {}

  /// SHAKE sweeps until the cluster converges; returns the sweep count.
  size_t shake(ClusterSpan cluster, std::span<const Vec3> before,
               std::span<Vec3> positions, std::span<Vec3> velocities,
               double dt) {
    reference(cluster, before, dt);
    size_t sweeps = 0;
    for (size_t iter = 0; iter < max_iterations_; ++iter) {
      double worst = 0.0;
      for (size_t k = 0; k < cluster.size(); ++k) {
        const DistanceConstraint& c = cluster[k];
        Vec3 d = min_image(positions[c.i], positions[c.j], edges_);
        double r2 = norm2(d);
        double diff = r2 - c.r0 * c.r0;
        worst = nan_max(worst, std::abs(std::sqrt(r2) - c.r0) / c.r0);
        if (std::abs(diff) < 2.0 * tolerance_ * c.r0 * c.r0) continue;

        // Classic SHAKE update along the *reference* bond direction.
        const Reference& s = ref_[k];
        double denom = 2.0 * (s.inv_mi + s.inv_mj) * dot(s.s, d);
        if (std::abs(denom) < 1e-12) denom = std::copysign(1e-12, denom);
        double g = diff / denom;
        Vec3 corr = g * s.s;
        positions[c.i] -= s.inv_mi * corr;
        positions[c.j] += s.inv_mj * corr;
        if (dt > 0.0) {
          velocities[c.i] -= s.vel_i * corr;
          velocities[c.j] += s.vel_j * corr;
        }
      }
      ++sweeps;
      if (worst < tolerance_) break;
      if (std::isnan(worst) || iter + 1 >= max_iterations_) {
        throw NumericalError(
            "SHAKE failed to converge — system is likely unstable");
      }
    }
    return sweeps;
  }

  /// M-SHAKE Newton iterations over a cluster of at most kMaxDense
  /// constraints; returns the iteration count.
  size_t mshake(ClusterSpan cluster, std::span<const Vec3> before,
                std::span<Vec3> positions, std::span<Vec3> velocities,
                double dt) {
    const size_t n = cluster.size();
    reference(cluster, before, dt);
    size_t iterations = 0;
    for (size_t iter = 0; iter < max_iterations_; ++iter) {
      // Residuals g_c = |r_c|² - d².
      double worst = 0.0;
      for (size_t c = 0; c < n; ++c) {
        const auto& con = cluster[c];
        r_cur_[c] = min_image(positions[con.i], positions[con.j], edges_);
        g_[c] = norm2(r_cur_[c]) - con.r0 * con.r0;
        worst = nan_max(worst,
                        std::abs(std::sqrt(norm2(r_cur_[c])) - con.r0) /
                            con.r0);
      }
      ++iterations;
      if (worst < tolerance_) break;
      if (std::isnan(worst) || iter + 1 >= max_iterations_) {
        throw NumericalError("M-SHAKE failed to converge");
      }

      // Jacobian A_{cd} = dg_c/dλ_d with the update
      // pos_i -= λ_d s_d / m_i, pos_j += λ_d s_d / m_j for constraint d.
      for (size_t c = 0; c < n; ++c) {
        const auto& cc = cluster[c];
        for (size_t d = 0; d < n; ++d) {
          const auto& cd = cluster[d];
          double w = 0.0;
          if (cc.i == cd.i) w += ref_[c].inv_mi;
          if (cc.i == cd.j) w -= ref_[c].inv_mi;
          if (cc.j == cd.i) w -= ref_[c].inv_mj;
          if (cc.j == cd.j) w += ref_[c].inv_mj;
          a_[c * n + d] = 2.0 * w * dot(r_cur_[c], ref_[d].s);
        }
      }
      std::copy_n(g_.begin(), n, lambda_.begin());
      if (!solve_dense(a_.data(), lambda_.data(), n)) {
        // Degenerate geometry: one Gauss–Seidel style relaxation instead.
        for (size_t c = 0; c < n; ++c) {
          const auto& con = cluster[c];
          const Reference& s = ref_[c];
          double denom = 2.0 * (s.inv_mi + s.inv_mj) * dot(s.s, r_cur_[c]);
          if (std::abs(denom) < 1e-12) denom = std::copysign(1e-12, denom);
          double lam = g_[c] / denom;
          positions[con.i] -= s.inv_mi * lam * s.s;
          positions[con.j] += s.inv_mj * lam * s.s;
          if (dt > 0.0) {
            velocities[con.i] -= s.vel_i * lam * s.s;
            velocities[con.j] += s.vel_j * lam * s.s;
          }
        }
        continue;
      }
      for (size_t c = 0; c < n; ++c) {
        const auto& con = cluster[c];
        const Reference& s = ref_[c];
        Vec3 corr = lambda_[c] * s.s;
        positions[con.i] -= s.inv_mi * corr;
        positions[con.j] += s.inv_mj * corr;
        if (dt > 0.0) {
          velocities[con.i] -= s.vel_i * corr;
          velocities[con.j] += s.vel_j * corr;
        }
      }
    }
    return iterations;
  }

  /// RATTLE sweeps until the cluster's relative velocities along its
  /// constraints vanish.
  void rattle(ClusterSpan cluster, std::span<const Vec3> positions,
              std::span<Vec3> velocities) {
    ref_.resize(cluster.size());
    for (size_t k = 0; k < cluster.size(); ++k) {
      const DistanceConstraint& c = cluster[k];
      Reference& r = ref_[k];
      r.s = min_image(positions[c.i], positions[c.j], edges_);
      r.inv_mi = 1.0 / masses_[c.i];
      r.inv_mj = 1.0 / masses_[c.j];
      r.denom = norm2(r.s) * (r.inv_mi + r.inv_mj);
    }
    for (size_t iter = 0; iter < max_iterations_; ++iter) {
      double worst = 0.0;
      for (size_t k = 0; k < cluster.size(); ++k) {
        const DistanceConstraint& c = cluster[k];
        const Reference& r = ref_[k];
        Vec3 dv = velocities[c.i] - velocities[c.j];
        double rv = dot(r.s, dv);
        worst = nan_max(worst, std::abs(rv) / (c.r0 * c.r0));
        double k_imp = rv / r.denom;
        velocities[c.i] -= k_imp * r.inv_mi * r.s;
        velocities[c.j] += k_imp * r.inv_mj * r.s;
      }
      if (worst < tolerance_) break;
      if (std::isnan(worst) || iter + 1 >= max_iterations_) {
        throw NumericalError("RATTLE velocity stage failed to converge");
      }
    }
  }

 private:
  /// Per constraint of the current cluster.  SHAKE: the reference bond
  /// vector at `before`, 1/m and (1/m)/dt.  RATTLE: the bond vector at the
  /// constrained positions, 1/m and r²·(1/m_i + 1/m_j).
  struct Reference {
    Vec3 s;
    double inv_mi = 0.0;
    double inv_mj = 0.0;
    double vel_i = 0.0;
    double vel_j = 0.0;
    double denom = 0.0;
  };

  void reference(ClusterSpan cluster, std::span<const Vec3> before,
                 double dt) {
    ref_.resize(cluster.size());
    for (size_t k = 0; k < cluster.size(); ++k) {
      const DistanceConstraint& c = cluster[k];
      Reference& r = ref_[k];
      r.s = min_image(before[c.i], before[c.j], edges_);
      r.inv_mi = 1.0 / masses_[c.i];
      r.inv_mj = 1.0 / masses_[c.j];
      if (dt > 0.0) {
        r.vel_i = r.inv_mi / dt;
        r.vel_j = r.inv_mj / dt;
      }
    }
  }

  const std::vector<double>& masses_;
  Vec3 edges_;
  double tolerance_;
  size_t max_iterations_;
  std::vector<Reference> ref_;
  // M-SHAKE's dense system, sized for its largest cluster.
  std::array<Vec3, kMaxDense> r_cur_{};
  std::array<double, kMaxDense * kMaxDense> a_{};
  std::array<double, kMaxDense> g_{};
  std::array<double, kMaxDense> lambda_{};
};

util::ChunkPlan plan(size_t clusters) {
  return util::plan_chunks(clusters, kMinChunkClusters, kMaxChunks);
}

/// Runs body(c) for every chunk: on `runtime`'s lanes when it is set and
/// there is more than one chunk, otherwise in index order on this thread.
void for_each_chunk(util::TaskRuntime* runtime, size_t chunks,
                    const std::function<void(size_t)>& body) {
  if (runtime != nullptr && chunks > 1) {
    runtime->parallel_for(chunks, body);
    return;
  }
  for (size_t c = 0; c < chunks; ++c) body(c);
}

}  // namespace

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
    clusters_[it->second].push_back(c);
  }
}

ConstraintStats ConstraintSolver::apply_positions(std::span<const Vec3> before,
                                                  std::span<Vec3> positions,
                                                  std::span<Vec3> velocities,
                                                  double dt, const Box& box,
                                                  util::TaskRuntime* runtime)
    const {
  // masses() is read on every call: the SDC scrubber repairs them in place.
  const std::vector<double>& masses = topo_->masses();
  const bool mshake = algorithm_ == ConstraintAlgorithm::kMShake;
  const util::ChunkPlan chunks = plan(clusters_.size());
  std::vector<ConstraintStats> partial(chunks.chunks);
  for_each_chunk(runtime, chunks.chunks, [&](size_t chunk) {
    ChunkSolver solver(masses, box, tolerance_, max_iterations_);
    ConstraintStats& out = partial[chunk];
    for (size_t k = chunks.begin(chunk); k < chunks.end(chunk); ++k) {
      const ClusterSpan cluster = clusters_[k];
      out.iterations +=
          mshake && cluster.size() <= kMaxDense
              ? solver.mshake(cluster, before, positions, velocities, dt)
              : solver.shake(cluster, before, positions, velocities, dt);
      // The cluster's atoms are final: no other cluster moves them.
      out.max_violation = nan_max(out.max_violation,
                                  violation(cluster, positions, box.edges()));
    }
  });
  ConstraintStats stats;
  for (const ConstraintStats& p : partial) {
    stats.iterations += p.iterations;
    stats.max_violation = nan_max(stats.max_violation, p.max_violation);
  }
  return stats;
}

void ConstraintSolver::apply_velocities(std::span<const Vec3> positions,
                                        std::span<Vec3> velocities,
                                        const Box& box,
                                        util::TaskRuntime* runtime) const {
  const std::vector<double>& masses = topo_->masses();
  const util::ChunkPlan chunks = plan(clusters_.size());
  for_each_chunk(runtime, chunks.chunks, [&](size_t chunk) {
    ChunkSolver solver(masses, box, tolerance_, max_iterations_);
    for (size_t k = chunks.begin(chunk); k < chunks.end(chunk); ++k) {
      solver.rattle(clusters_[k], positions, velocities);
    }
  });
}

double ConstraintSolver::max_violation(std::span<const Vec3> positions,
                                       const Box& box) const {
  double worst = 0.0;
  for (const auto& cluster : clusters_) {
    worst = nan_max(worst, violation(cluster, positions, box.edges()));
  }
  return worst;
}

}  // namespace antmd::md
