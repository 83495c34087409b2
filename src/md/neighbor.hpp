// Verlet neighbor list, built as cluster-pair tiles.
//
// One search bins the atoms on a fine spatial grid (the cluster order),
// culls (i-cluster, j-group) candidates by periodic bounding-box distance
// and sets each tile mask bit by the exact minimum-image test, so the list
// *is* its tiles (ff::ClusterPairList): entries come out sorted by
// (ci, cj) and are identical at any lane count.  Pair mode additionally
// decodes the tiles into the sorted (i < j, lexicographic) flat pair
// vector the pair kernel and the machine's pair partition consume.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ff/nonbonded.hpp"
#include "ff/nonbonded_cluster.hpp"
#include "math/pbc.hpp"
#include "topo/topology.hpp"
#include "util/task_graph.hpp"

namespace antmd::md {

/// Verlet list with a skin: rebuilt only when some atom has moved more than
/// half the skin since the last build.
class NeighborList {
 public:
  /// Pair mode (cluster_mode = false) also keeps the flat pair vector,
  /// decoded from the tiles after every rebuild.
  NeighborList(const Topology& topo, double cutoff, double skin,
               bool cluster_mode = false);

  /// Rebuilds unconditionally.
  void build(std::span<const Vec3> positions, const Box& box);

  /// Rebuilds only if needed; returns true if a rebuild happened.
  bool update(std::span<const Vec3> positions, const Box& box);

  /// Sorted flat pairs; pair mode only.
  [[nodiscard]] const std::vector<ff::PairEntry>& pairs() const;
  [[nodiscard]] bool cluster_mode() const { return cluster_mode_; }
  /// The tiles of the last build (in both modes).
  [[nodiscard]] const ff::ClusterPairList& clusters() const {
    return clusters_;
  }
  [[nodiscard]] double cutoff() const { return cutoff_; }
  [[nodiscard]] double skin() const { return skin_; }
  [[nodiscard]] uint64_t build_count() const { return build_count_; }

  /// Opts the list into threaded rebuilds on `runtime`.  Fixed chunks of
  /// i-clusters are searched concurrently and concatenated in chunk order;
  /// the chunk bounds depend on the cluster count alone, so the list is
  /// identical to the serial build at any lane count.
  void set_execution(std::shared_ptr<util::TaskRuntime> runtime) {
    runtime_ = std::move(runtime);
  }

 private:
  [[nodiscard]] bool needs_rebuild(std::span<const Vec3> positions,
                                   const Box& box) const;
  void decode_pairs(size_t atom_count);

  const Topology* topo_;
  double cutoff_;
  double skin_;
  bool cluster_mode_ = false;
  std::vector<ff::PairEntry> pairs_;
  ff::ClusterPairList clusters_;
  /// Per-atom excluded partners (CSR, both directions), from
  /// Topology::excluded_pairs() at the first build.
  std::vector<uint32_t> excl_begin_;
  std::vector<uint32_t> excl_;
  /// Each search chunk's slice of the entries, reused across builds.
  std::vector<std::vector<ff::ClusterPairEntry>> chunk_entries_;
  std::vector<Vec3> reference_positions_;
  uint64_t build_count_ = 0;
  std::shared_ptr<util::TaskRuntime> runtime_;  ///< null = serial build
  /// Last atom seen beyond half-skin: checked first for an O(1) positive
  /// skin-check exit while that atom keeps drifting.
  mutable uint32_t hot_atom_ = 0;
};

}  // namespace antmd::md
