// Cell list and Verlet neighbor list.
//
// The list produces a deterministic, sorted (i < j, lexicographic) pair
// vector; the distributed runtime re-partitions exactly this vector across
// nodes, which together with fixed-point accumulation gives bit-identical
// forces at any node count.
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

/// Uniform spatial binning over the box.
class CellList {
 public:
  /// cell_size is a lower bound on the actual cell edge (cells evenly
  /// divide the box).
  CellList(const Box& box, double cell_size);

  void assign(std::span<const Vec3> positions, const Box& box);

  [[nodiscard]] size_t cell_count() const {
    return static_cast<size_t>(nx_) * ny_ * nz_;
  }
  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }

  /// Atoms in cell (cx, cy, cz) (unwrapped indices are taken modulo dims).
  [[nodiscard]] const std::vector<uint32_t>& cell(int cx, int cy,
                                                  int cz) const;
  /// Cell coordinates of atom i from the last assign().
  [[nodiscard]] std::array<int, 3> cell_of(uint32_t atom) const;

 private:
  [[nodiscard]] size_t index(int cx, int cy, int cz) const;

  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<std::vector<uint32_t>> cells_;
  std::vector<std::array<int, 3>> atom_cells_;
};

/// Verlet list with a skin: rebuilt only when some atom has moved more than
/// half the skin since the last build.
class NeighborList {
 public:
  /// cluster_mode additionally derives a blocked cluster-pair list from
  /// every rebuild (see ff::ClusterPairList); the flat pair vector is still
  /// produced and stays the source of truth for the pair set.
  NeighborList(const Topology& topo, double cutoff, double skin,
               bool cluster_mode = false);

  /// Rebuilds unconditionally.
  void build(std::span<const Vec3> positions, const Box& box);

  /// Rebuilds only if needed; returns true if a rebuild happened.
  bool update(std::span<const Vec3> positions, const Box& box);

  [[nodiscard]] const std::vector<ff::PairEntry>& pairs() const {
    return pairs_;
  }
  [[nodiscard]] bool cluster_mode() const { return cluster_mode_; }
  /// Blocked tile view of pairs(); empty unless cluster_mode is on.
  [[nodiscard]] const ff::ClusterPairList& clusters() const {
    return clusters_;
  }
  [[nodiscard]] double cutoff() const { return cutoff_; }
  [[nodiscard]] double skin() const { return skin_; }
  [[nodiscard]] uint64_t build_count() const { return build_count_; }

  /// Opts the list into threaded rebuilds on `runtime`.  Cell slices are
  /// enumerated concurrently and concatenated in slice order; the final
  /// sort makes the pair vector identical to the serial build regardless of
  /// thread count.
  void set_execution(std::shared_ptr<util::TaskRuntime> runtime) {
    runtime_ = std::move(runtime);
  }

 private:
  [[nodiscard]] bool needs_rebuild(std::span<const Vec3> positions,
                                   const Box& box) const;
  void build_clusters(const CellList& cells,
                      std::span<const Vec3> positions, const Box& box);

  const Topology* topo_;
  double cutoff_;
  double skin_;
  bool cluster_mode_ = false;
  std::vector<ff::PairEntry> pairs_;
  ff::ClusterPairList clusters_;
  std::vector<Vec3> reference_positions_;
  uint64_t build_count_ = 0;
  std::shared_ptr<util::TaskRuntime> runtime_;  ///< null = serial build
  /// Last atom seen beyond half-skin: checked first for an O(1) positive
  /// skin-check exit while that atom keeps drifting.
  mutable uint32_t hot_atom_ = 0;
};

}  // namespace antmd::md
