// Holonomic constraint solvers: SHAKE (positions) and RATTLE-style velocity
// projection.  Rigid 3-site water is three coupled distance constraints per
// molecule; the solver clusters constraints by connectivity and iterates
// each cluster to convergence, which is exactly M-SHAKE's fixed point.
//
// On Anton, constraints run on the geometry cores each step; the machine
// model charges them accordingly.
#pragma once

#include <span>
#include <vector>

#include "math/pbc.hpp"
#include "topo/topology.hpp"

namespace antmd::md {

struct ConstraintStats {
  size_t iterations = 0;      ///< total sweeps in the last apply()
  double max_violation = 0.0; ///< |r - r0| / r0 after convergence
};

/// Position-constraint algorithm.
enum class ConstraintAlgorithm {
  kShake,   ///< classic per-constraint Gauss–Seidel sweeps
  kMShake,  ///< per-cluster Newton iteration on the coupled multipliers
            ///< (what Anton's geometry cores run); quadratic convergence
};

class ConstraintSolver {
 public:
  /// tolerance is relative: ||r|-r0|/r0 below tolerance counts as converged.
  ConstraintSolver(const Topology& topo, double tolerance = 1e-8,
                   size_t max_iterations = 500,
                   ConstraintAlgorithm algorithm =
                       ConstraintAlgorithm::kShake);

  [[nodiscard]] bool empty() const { return clusters_.empty(); }

  /// SHAKE: corrects `positions` so all constraints hold, given the
  /// positions `before` the unconstrained update (used for the direction of
  /// the correction), and updates velocities by the implied impulse /dt.
  /// Pass dt <= 0 to skip the velocity update.
  ConstraintStats apply_positions(std::span<const Vec3> before,
                                  std::span<Vec3> positions,
                                  std::span<Vec3> velocities, double dt,
                                  const Box& box) const;

  /// RATTLE velocity stage: removes relative velocity components along each
  /// constraint direction.
  void apply_velocities(std::span<const Vec3> positions,
                        std::span<Vec3> velocities, const Box& box) const;

  /// Largest relative violation of any constraint at these positions.
  [[nodiscard]] double max_violation(std::span<const Vec3> positions,
                                     const Box& box) const;

  [[nodiscard]] ConstraintAlgorithm algorithm() const { return algorithm_; }

 private:
  struct Cluster {
    std::vector<DistanceConstraint> constraints;
  };

  /// SHAKE sweeps over one cluster until it converges; returns the sweep
  /// count.  Throws NumericalError after max_iterations_ sweeps.
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

}  // namespace antmd::md
