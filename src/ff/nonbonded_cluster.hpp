// Blocked cluster-pair nonbonded kernel (the GROMACS NxM shape mapped onto
// antmd's deterministic fixed-point contract).
//
// The flat pair list streams one (i, j) entry per interaction; the cluster
// list holds *exactly the same pair set* as 8×4 tiles (the GROMACS N×M
// split: i-clusters of 8 atoms against fixed 4-atom j-groups): atoms are
// ordered by a fine spatial grid, chunked into clusters of 8, and every
// pair in reach becomes one bit in the interaction mask of its
// (cluster_i, j_group) tile.  Keeping the j side at 4 slots means an
// empty half of a wide tile is simply never emitted, so the wide i side
// does not dilute the mask fill.  The kernel gathers coordinates and
// per-atom parameters once per cluster (SoA), walks the mask bits, and
// accumulates forces/energies through the same quantize-once fixed-point
// path as ff::compute_pairs — so the two kernels are bit-identical in
// every fixed-point sum, and the tile structure only changes memory
// traffic and per-pair overhead, not physics.
//
// Determinism contract (mirrors util/task_graph.hpp):
//   - forces and energies are integer sums → independent of tile order,
//     chunking and thread count, and bit-identical to the flat kernel;
//   - the double-precision virial is accumulated in 8 sub-accumulators
//     indexed s = (row parity)*4 + column, merged in ascending s at the end
//     of each entry span.  That grouping is exactly the lane structure a
//     SIMD evaluator has — 4 lanes cover one tile row (lane b == column b),
//     8 lanes cover an even/odd row pair — so scalar and vector kernels
//     produce the *same bits* for the virial too;
//   - the virial is additionally summed per fixed-size entry chunk and the
//     chunk partials are reduced in ascending chunk order, so it is
//     bit-identical across thread counts (chunk boundaries depend only on
//     the list, never on the thread count).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ff/energy.hpp"
#include "ff/nonbonded.hpp"
#include "math/pbc.hpp"
#include "util/task_graph.hpp"

namespace antmd::ff {

/// Kernel selector for the real-space nonbonded hot path.
enum class NonbondedKernel {
  kPair,     ///< flat pair-by-pair loop (reference implementation)
  kCluster,  ///< blocked 4x4 cluster-pair tiles (default)
};

/// Parses "pair" / "cluster"; throws ConfigError on anything else.
[[nodiscard]] NonbondedKernel parse_nonbonded_kernel(const std::string& name);
[[nodiscard]] const char* to_string(NonbondedKernel kernel);

/// Atoms per i-cluster: one tile covers kClusterWidth × kClusterJWidth
/// candidate pairs, and the 8-wide i side feeds SIMD row streaming.
inline constexpr uint32_t kClusterWidth = 8;

/// J-side tile width: always 4 slots.  Tile entries key on 4-slot j-groups
/// (two per 8-atom cluster), so the mask layout is bit a*4+b and empty
/// tile halves are never streamed.
inline constexpr uint32_t kClusterJWidth = 4;

/// Slot sentinel for the ragged last cluster.
inline constexpr uint32_t kPadAtom = 0xffffffffu;

/// One i-cluster × j-group tile.  `ci` indexes width-slot i-clusters,
/// `cj` indexes 4-slot j-groups (cj*kClusterJWidth is its slot base).  Bit
/// (a*kClusterJWidth + b) of `mask` is set when slot a of cluster ci
/// interacts with slot b of group cj; the masks encode exactly the list's
/// pair set (in reach at build time, exclusions removed, each unordered
/// pair exactly once, i-side slot < j-side slot), never padding.
struct ClusterPairEntry {
  uint32_t ci = 0;
  uint32_t cj = 0;    ///< ci's slot base never exceeds cj's last slot
  uint64_t mask = 0;  ///< 32 bits used
};
static_assert(sizeof(ClusterPairEntry) == 16, "a tile entry is 16 bytes");

/// The blocked list: SoA per-slot static data plus the tile entries.
/// Built directly by md::NeighborList's cluster search (see
/// NeighborList::clusters()); consumed by compute_clusters().
struct ClusterPairList {
  /// Atoms per cluster (kClusterWidth).
  uint32_t width = kClusterWidth;
  /// Slot -> global atom id, kPadAtom in padded slots; size is
  /// cluster_count() * width.
  std::vector<uint32_t> atoms;
  std::vector<uint32_t> slot_types;   ///< padded slots hold 0
  std::vector<double> slot_charges;   ///< padded slots hold 0.0
  std::vector<ClusterPairEntry> entries;  ///< sorted by (ci, cj)
  size_t real_pairs = 0;  ///< total mask popcount == flat pair count
  size_t active_rows = 0;  ///< tile rows with at least one mask bit set

  [[nodiscard]] size_t cluster_count() const {
    return atoms.size() / width;
  }
  /// Pipeline lanes a width×4-tile evaluator streams (incl. masked-off
  /// ones).
  [[nodiscard]] size_t lane_count() const {
    return entries.size() * width * kClusterJWidth;
  }
  /// Useful-work fraction of all tile lanes (telemetry gauge).
  [[nodiscard]] double fill_ratio() const {
    size_t lanes = lane_count();
    return lanes ? static_cast<double>(real_pairs) /
                       static_cast<double>(lanes)
                 : 0.0;
  }
  /// Useful-work fraction of the lanes a row-skipping evaluator actually
  /// streams (the SIMD kernels stream kClusterJWidth lanes per active row
  /// and skip all-zero rows entirely).
  [[nodiscard]] double streamed_fill_ratio() const {
    return active_rows ? static_cast<double>(real_pairs) /
                             static_cast<double>(active_rows * kClusterJWidth)
                       : 0.0;
  }

  // Kernel scratch, reused across steps.  Mutable because force evaluation
  // is logically const on the list; a list serves one kernel call at a time
  // (same single-writer discipline as the rest of the simulation).
  mutable std::vector<double> sx, sy, sz;  ///< gathered coordinates
  mutable PartialSums scratch;  ///< lane forces + per-chunk energy/virial
};

/// Gathers `pos` into the list's SoA coordinate scratch (cluster order).
/// Must run after every position change and before compute_cluster_entries;
/// compute_clusters() calls it itself.
void gather_cluster_coords(const ClusterPairList& list,
                           std::span<const Vec3> pos);

/// Evaluates a span of tiles into explicit sinks.  Assumes
/// gather_cluster_coords() ran at the current positions.  The virial sink is
/// separate from the fixed-point sinks so callers control its summation
/// grouping (see compute_clusters for why).
void compute_cluster_entries(const ClusterPairList& list,
                             std::span<const ClusterPairEntry> entries,
                             const PairTableSet& tables, const Box& box,
                             FixedForceArray& forces, EnergyBreakdown& energy,
                             Mat3& virial, double vdw_scale = 1.0,
                             double charge_product_scale = 1.0);

/// The scalar tile loop, bypassing ISA dispatch — the reference every SIMD
/// variant must match bit for bit (see ff/nonbonded_simd.hpp and
/// tests/simd_kernel_test.cpp).  compute_cluster_entries routes here when
/// the active ISA is scalar or the tables are outside the SIMD envelope.
void compute_cluster_entries_scalar(
    const ClusterPairList& list, std::span<const ClusterPairEntry> entries,
    const PairTableSet& tables, const Box& box, FixedForceArray& forces,
    EnergyBreakdown& energy, Mat3& virial, double vdw_scale = 1.0,
    double charge_product_scale = 1.0);

/// The deterministic chunk partition for a list: a function of the entry
/// count alone, never of the lane count, so per-chunk virial partials keep
/// the same boundaries (and the same bits) at any parallelism.
[[nodiscard]] util::ChunkPlan cluster_chunk_plan(const ClusterPairList& list);

/// Whole-list evaluation: gather + prepare + chunks + reduce, fanned out
/// over `runtime` when parallel.  Bit-identical to ff::compute_pairs over
/// the same pairs as a flat list in forces and energies, and bit-identical
/// to itself at any thread count (including the virial).
void compute_clusters(const ClusterPairList& list, const PairTableSet& tables,
                      std::span<const Vec3> pos, const Box& box,
                      ForceResult& out, double vdw_scale = 1.0,
                      double charge_product_scale = 1.0,
                      util::TaskRuntime* runtime = nullptr);

}  // namespace antmd::ff
