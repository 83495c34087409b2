// ForceGraph: the one evaluation graph both force providers run.
//
// One run constructs virtual sites, gathers the tile coordinates, then
// fans out one parallel task over *force slots* beside GSE's
// reciprocal-space stage chain, and ends in one reduction: slot energy and
// virial in ascending slot order, then the k-space cache, then the
// virtual-site force spread.
//
// A slot is data: bonded terms, a span of flat pairs and a span of tiles,
// evaluated in that order into the lane's force array and the slot's own
// energy and virial (PartialSums).  The host passes one slot holding the
// whole system's bonded terms (plus every flat pair under the pair kernel)
// and one slot per tile chunk; the machine passes one slot per node.
// Forces and energies are integer sums, and every double-precision virial
// sum has a fixed place — within a slot, and across slots in ascending
// order — so the result is bit-identical at any lane count.
//
// The graph never asks which engine runs it: the caller updates its
// neighbor list (and the machine snaps positions to the wire format)
// before run().
#pragma once

#include <memory>
#include <span>

#include "ff/forcefield.hpp"
#include "md/force_provider.hpp"
#include "util/task_graph.hpp"

namespace antmd {

namespace obs {
class Counter;
}

namespace md {

/// One unit of the slot fan-out.
struct ForceSlot {
  ff::BondedTerms bonded;
  std::span<const ff::PairEntry> pairs;
  /// Tiles of the run's ForceGraph::Run::tiles list.
  std::span<const ff::ClusterPairEntry> tiles;
};

/// What tells one engine's graph apart in telemetry.  Names must be string
/// literals; a null counter is not fed.
struct ForceGraphLabels {
  const char* graph = nullptr;   ///< the TaskGraph
  const char* slots = nullptr;   ///< the slot fan-out task
  const char* reduce = nullptr;  ///< the reduction task
  obs::Counter* kspace_ns = nullptr;     ///< wall span of the k-space chain
  obs::Counter* bonded_ns = nullptr;     ///< slots' bonded terms
  obs::Counter* nonbonded_ns = nullptr;  ///< gather, slots' pairs and tiles
  /// When >= 0, each slot is a trace phase named `slots` on track
  /// slot_tracks + slot (the machine's per-node rows), timed into slot_ns
  /// and counted in slot_count.
  int64_t slot_tracks = -1;
  obs::Counter* slot_ns = nullptr;
  obs::Counter* slot_count = nullptr;
};

class ForceGraph {
 public:
  /// One evaluation's input.  Every span and pointer must stay valid until
  /// run() returns.
  struct Run {
    std::span<Vec3> positions;  ///< virtual sites are constructed in place
    Box box;
    double time = 0.0;  ///< simulation time, for steered springs
    /// kBonded evaluates only the slots' bonded terms; kNonbonded only
    /// their pairs and tiles, plus the k-space merge.
    ForceTerms terms = ForceTerms::kAll;
    /// Recompute reciprocal space into `kspace_cache` before merging it.
    bool kspace_due = true;
    std::span<const ForceSlot> slots;
    /// The tile list the slots' tile spans index (null: no tiles).
    const ff::ClusterPairList* tiles = nullptr;
    ForceResult* out = nullptr;  ///< reset, then filled
    ForceResult* kspace_cache = nullptr;
  };

  /// A null or 1-lane runtime runs the graph serially.
  ForceGraph(const ForceField& ff, std::shared_ptr<util::TaskRuntime> runtime,
             ForceGraphLabels labels);
  // The graph's tasks hold `this`.
  ForceGraph(const ForceGraph&) = delete;
  ForceGraph& operator=(const ForceGraph&) = delete;

  void run(const Run& input);

 private:
  [[nodiscard]] bool with_bonded() const {
    return run_.terms != ForceTerms::kNonbonded;
  }
  [[nodiscard]] bool with_nonbonded() const {
    return run_.terms != ForceTerms::kBonded;
  }
  void run_slot(size_t s);
  void reduce();

  const ForceField* ff_;
  ForceGraphLabels labels_;
  util::TaskGraph graph_;
  PartialSums sums_;  ///< lane forces + per-slot energy/virial, reused
  Run run_;           ///< the evaluation in flight, read by the tasks
};

/// The kNanForce injection point, polled once per evaluation after its
/// graph: when a plan fires, one atom's force quanta are poisoned.
void poll_force_fault(ForceResult& out);

}  // namespace md
}  // namespace antmd
