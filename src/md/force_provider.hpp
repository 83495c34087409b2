// ForceProvider: the one seam between md::Simulation's integrator and the
// machinery that evaluates forces.
//
// Simulation owns the dynamics (Verlet, RESPA, constraints, thermostat,
// barostat, COM removal, observers, the physics checkpoint); a provider
// fills a ForceResult for a requested term set and owns everything it
// derives from positions (neighbor list, cluster tiles, node partitions).
// Both providers evaluate through one md::ForceGraph (md/force_graph.hpp):
// the host's (md/simulation.cpp) with the system's bonded terms and tile
// chunks as slots, the modeled machine's (runtime/machine_sim.hpp) through
// runtime::DistributedEngine with one slot per node, plus its timing and
// transport accounting.
#pragma once

#include "ff/forcefield.hpp"
#include "md/neighbor.hpp"
#include "md/state.hpp"

namespace antmd::md {

struct SimulationConfig;

/// The force terms one evaluation fills.
enum class ForceTerms {
  kAll,        ///< every term: velocity Verlet and every full refresh
  kBonded,     ///< RESPA's inner pass: bonded terms on the standing list
  kNonbonded,  ///< RESPA's outer kick: nonbonded + k-space
};

struct ForceRequest {
  ForceTerms terms = ForceTerms::kAll;
  /// Recompute reciprocal space into the k-space cache; otherwise the
  /// cached contribution (from older positions) is merged as is.
  bool kspace_due = true;
  /// Re-deriving the forces of a restored checkpoint.  The original run
  /// already paid for this evaluation, so a provider that models cost
  /// charges nothing for it.
  bool restore = false;
};

class ForceProvider {
 public:
  virtual ~ForceProvider() = default;

  /// First build of everything derived from positions.  `config` is the
  /// integrator's live configuration; it outlives the provider.
  virtual void init(State& state, const SimulationConfig& config) = 0;
  /// Rebuilds it after positions or the box changed wholesale (restore,
  /// invalidate_forces, barostat rescale).
  virtual void rebuild(State& state) = 0;
  /// Resets `out` and fills it with `request.terms` at the state's
  /// positions, updating the neighbor list first unless the pass is
  /// bonded-only.  May rewrite positions (virtual sites, wire format).
  virtual void compute(State& state, const ForceRequest& request,
                       ForceResult& out, ForceResult& kspace_cache) = 0;
  [[nodiscard]] virtual const NeighborList& neighbor_list() const = 0;
};

}  // namespace antmd::md
