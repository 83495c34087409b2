// Holonomic constraint solvers: SHAKE (positions) and RATTLE-style velocity
// projection.  Rigid 3-site water is three coupled distance constraints per
// molecule; the solver clusters constraints by connectivity and iterates
// each cluster to convergence, which is exactly M-SHAKE's fixed point.
//
// Clusters are the connected components of the constraint graph, so no two
// share an atom.  Each call solves them as one util::TaskRuntime
// parallel_for over fixed cluster chunks (util::plan_chunks of the cluster
// count alone); a cluster's arithmetic never sees another's atoms, sweep
// counts are integers and the maximum violation merges in chunk order, so
// the results are bit-identical at any lane count and with a null runtime,
// which runs the same chunks in index order on the calling thread.  A
// NumericalError from a chunk is rethrown once the lanes quiesce; which
// other clusters were updated by then depends on the schedule, so only a
// restore may follow it.
//
// On Anton, constraints run on the geometry cores each step; the machine
// model charges them accordingly.
#pragma once

#include <span>
#include <vector>

#include "math/pbc.hpp"
#include "topo/topology.hpp"
#include "util/task_graph.hpp"

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
  /// Pass dt <= 0 to skip the velocity update.  Clusters fan out on
  /// `runtime` (null: serial).  Throws NumericalError when a cluster does
  /// not converge or a constraint length is NaN.
  ConstraintStats apply_positions(std::span<const Vec3> before,
                                  std::span<Vec3> positions,
                                  std::span<Vec3> velocities, double dt,
                                  const Box& box,
                                  util::TaskRuntime* runtime = nullptr) const;

  /// RATTLE velocity stage: removes relative velocity components along each
  /// constraint direction.  Clusters fan out on `runtime` (null: serial).
  void apply_velocities(std::span<const Vec3> positions,
                        std::span<Vec3> velocities, const Box& box,
                        util::TaskRuntime* runtime = nullptr) const;

  /// Largest relative violation of any constraint at these positions; NaN
  /// when any constraint length is NaN.
  [[nodiscard]] double max_violation(std::span<const Vec3> positions,
                                     const Box& box) const;

  [[nodiscard]] ConstraintAlgorithm algorithm() const { return algorithm_; }

 private:
  const Topology* topo_;
  double tolerance_;
  size_t max_iterations_;
  ConstraintAlgorithm algorithm_;
  /// The connected components of the constraint graph, each in topology
  /// order, ordered by their first constraint.
  std::vector<std::vector<DistanceConstraint>> clusters_;
};

}  // namespace antmd::md
