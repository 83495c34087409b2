#include "md/neighbor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace antmd::md {
namespace {

constexpr uint32_t kWidth = ff::kClusterWidth;
constexpr uint32_t kJWidth = ff::kClusterJWidth;
static_assert(kWidth == 2 * kJWidth, "an i-cluster spans two j-groups");

/// Search chunks: at least this many i-clusters each, at most this many
/// per build.  A function of the cluster count alone.
constexpr size_t kMinChunkClusters = 16;
constexpr size_t kMaxChunks = 64;
/// Pair-mode sort chunks: at least this many atoms' pair runs each.
constexpr size_t kMinChunkAtoms = 256;

/// An atom this many box edges outside the primary cell (or not finite) is
/// corrupt: it keeps its slot but takes part in no pair.
constexpr double kWildEdges = 1e6;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Mask bits of the two tiles an i-cluster shares with itself (j-group
/// 2ci + offset) whose j slot lies above the i slot: the lower slot of a
/// pair always takes the i side.
constexpr uint64_t diagonal_mask(uint32_t offset) {
  uint64_t m = 0;
  for (uint32_t a = 0; a < kWidth; ++a) {
    for (uint32_t b = 0; b < kJWidth; ++b) {
      if (offset * kJWidth + b > a) m |= uint64_t{1} << (a * kJWidth + b);
    }
  }
  return m;
}
constexpr uint64_t kDiagonal[2] = {diagonal_mask(0), diagonal_mask(1)};

/// Cell of a wrapped coordinate on an n-cell axis, int(w / edge * n), with
/// NaN, infinite and out-of-range values clamped into [0, n) before the
/// cast so it stays defined (NaN gets cell 0, as in GseSolver).
int grid_cell(double w, double edge, int n) {
  const double x = w / edge * n;
  if (!(x > 0)) return 0;
  if (!(x < n - 1)) return n - 1;
  return static_cast<int>(x);
}

/// An axis-aligned box: a periodic image of every member lies within
/// `half` of `center` on each axis.  A box with no member has
/// half = -inf, which puts it infinitely far from everything.
struct Bounds {
  double center[3] = {0.0, 0.0, 0.0};
  double half[3] = {-kInf, -kInf, -kInf};
};

/// Distance along one axis between two boxes whose centers differ by `dc`
/// and whose half-extents sum to `halves`, over the nearest periodic image.
inline double axis_gap(double dc, double halves, double edge,
                       double inv_edge) {
  dc -= std::nearbyint(dc * inv_edge) * edge;
  return std::max(0.0, std::abs(dc) - halves);
}

/// The cells of one fine-grid axis that can hold an atom within `reach` of
/// [center - half, center + half] (periodically): one or two ascending,
/// disjoint runs.
struct Runs {
  int count = 1;
  int lo[2] = {0, 0};
  int hi[2] = {0, 0};
};

Runs axis_runs(double center, double half, double reach, double edge,
               int n) {
  Runs r;
  double qlo = center - half - reach;
  double qhi = center + half + reach;
  r.hi[0] = n - 1;
  if (!(qhi - qlo < edge)) return r;
  const double shift = std::floor(qlo / edge) * edge;
  qlo -= shift;
  qhi -= shift;
  const int a = grid_cell(qlo, edge, n);
  if (qhi < edge) {
    r.lo[0] = a;
    r.hi[0] = grid_cell(qhi, edge, n);
    return r;
  }
  const int b = grid_cell(qhi - edge, edge, n);
  if (b + 1 >= a) return r;  // the runs meet: the whole axis
  r.count = 2;
  r.hi[0] = b;
  r.lo[1] = a;
  r.hi[1] = n - 1;
  return r;
}

/// The search's per-slot positions, in the fine-grid slot order: the
/// positions as given, NaN for padding and corrupt atoms (no pairs).
struct Slots {
  std::vector<double> pos[3];

  explicit Slots(size_t n) {
    for (auto& v : pos) v.assign(n, std::numeric_limits<double>::quiet_NaN());
  }

  /// Periodic bounding box of the slots in [s0, s1) that hold an atom,
  /// spanned by their minimum images about the first of them (so a cluster
  /// that wraps from the end of a grid row to the start of the next stays
  /// compact).
  [[nodiscard]] Bounds bounds(size_t s0, size_t s1, const Vec3& edges,
                              const Vec3& inv_edges) const {
    while (s0 < s1 && std::isnan(pos[0][s0])) ++s0;
    if (s0 == s1) return Bounds{};
    Bounds box;
    for (int ax = 0; ax < 3; ++ax) {
      const std::vector<double>& v = pos[ax];
      double lo = 0.0;
      double hi = 0.0;
      for (size_t s = s0 + 1; s < s1; ++s) {
        if (std::isnan(v[s])) continue;
        double d = v[s] - v[s0];
        d -= std::nearbyint(d * inv_edges[ax]) * edges[ax];
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
      box.center[ax] = v[s0] + 0.5 * (lo + hi);
      box.half[ax] = 0.5 * (hi - lo);
    }
    return box;
  }
};

/// Row bits of one i slot against a j-group's four slots: bit b is set when
/// Box::distance2 between the two is below reach2, computed operation for
/// operation.  The first loop has no cross-lane dependence, so with SSE4.1
/// the compiler runs it two slots per instruction (divpd, roundpd in
/// nearbyint's mode, no contraction): the same IEEE operations in the same
/// order.  The minimum-image distance is symmetric under exchanging the
/// atoms (negation commutes with every rounding step), so slot order stands
/// in for atom order.  NaN coordinates never set a bit.
inline uint64_t row_bits(double xi, double yi, double zi, const double* xj,
                         const double* yj, const double* zj,
                         const Vec3& edges, double reach2) {
  double r2[kJWidth];
  for (uint32_t b = 0; b < kJWidth; ++b) {
    double dx = xi - xj[b];
    double dy = yi - yj[b];
    double dz = zi - zj[b];
    dx -= std::nearbyint(dx / edges.x) * edges.x;
    dy -= std::nearbyint(dy / edges.y) * edges.y;
    dz -= std::nearbyint(dz / edges.z) * edges.z;
    r2[b] = dx * dx + dy * dy + dz * dz;
  }
  uint64_t row = 0;
  for (uint32_t b = 0; b < kJWidth; ++b) {
    row |= static_cast<uint64_t>(r2[b] < reach2) << b;
  }
  return row;
}

/// Tile rows (4-bit groups of a 32-bit mask) with at least one bit set.
inline size_t active_rows_of(uint64_t mask) {
  uint64_t any = mask | (mask >> 1) | (mask >> 2) | (mask >> 3);
  return static_cast<size_t>(std::popcount(any & 0x11111111u));
}

}  // namespace

NeighborList::NeighborList(const Topology& topo, double cutoff, double skin,
                           bool cluster_mode)
    : topo_(&topo), cutoff_(cutoff), skin_(skin), cluster_mode_(cluster_mode) {
  ANTMD_REQUIRE(cutoff > 0 && skin >= 0, "bad neighbor-list parameters");
}

const std::vector<ff::PairEntry>& NeighborList::pairs() const {
  ANTMD_REQUIRE(!cluster_mode_, "a cluster-mode list keeps no flat pairs");
  return pairs_;
}

void NeighborList::build(std::span<const Vec3> positions, const Box& box) {
  static auto& rebuild_count =
      obs::MetricsRegistry::global().counter("md.neighbor.rebuild.count");
  static auto& rebuild_ns =
      obs::MetricsRegistry::global().counter("md.neighbor.time_ns");
  obs::TracePhase phase("md.neighbor.rebuild", "md", &rebuild_ns);
  rebuild_count.add();
  const double reach = cutoff_ + skin_;
  ANTMD_REQUIRE(2.0 * reach <= box.min_edge(),
                "cutoff+skin exceeds half the smallest box edge");
  const size_t atom_count = positions.size();
  ANTMD_REQUIRE(atom_count == topo_->atom_count(),
                "neighbor list: one position per topology atom");

  if (excl_begin_.size() != atom_count + 1) {
    // Per-atom sorted partner lists: excluded_pairs() is sorted, so each
    // atom's lower partners arrive in ascending order before its upper ones.
    const auto excluded = topo_->excluded_pairs();
    excl_begin_.assign(atom_count + 1, 0);
    for (const auto& [i, j] : excluded) {
      ++excl_begin_[i + 1];
      ++excl_begin_[j + 1];
    }
    std::partial_sum(excl_begin_.begin(), excl_begin_.end(),
                     excl_begin_.begin());
    excl_.resize(excl_begin_.back());
    std::vector<uint32_t> fill(excl_begin_.begin(), excl_begin_.end() - 1);
    for (const auto& [i, j] : excluded) {
      excl_[fill[i]++] = j;
      excl_[fill[j]++] = i;
    }
  }

  // Fine-grid atom order: a grid sized so each cell holds ~kWidth atoms,
  // cell-major, ascending atom index within a cell.  Consecutive slots are
  // then spatially adjacent at the cluster scale, so 8x4 tiles stay densely
  // masked.  One stable counting sort bins every atom.
  const Vec3 edges = box.edges();
  const double target_edge =
      std::cbrt(box.volume() * static_cast<double>(kWidth) /
                std::max<double>(1.0, static_cast<double>(atom_count)));
  const double cell_size = std::max(target_edge, 1e-6);
  int n[3];
  for (int ax = 0; ax < 3; ++ax) {
    n[ax] = std::max(1, static_cast<int>(edges[ax] / cell_size));
  }
  const size_t n_cells = static_cast<size_t>(n[0]) * n[1] * n[2];
  std::vector<uint32_t> cell_of(atom_count);
  std::vector<uint32_t> cell_start(n_cells + 1, 0);
  for (size_t i = 0; i < atom_count; ++i) {
    const Vec3 w = box.wrap(positions[i]);
    cell_of[i] = static_cast<uint32_t>(
        grid_cell(w.x, edges.x, n[0]) +
        n[0] * (grid_cell(w.y, edges.y, n[1]) +
                n[1] * grid_cell(w.z, edges.z, n[2])));
    ++cell_start[cell_of[i] + 1];
  }
  std::partial_sum(cell_start.begin(), cell_start.end(), cell_start.begin());

  ff::ClusterPairList& cl = clusters_;
  const size_t n_clusters = (atom_count + kWidth - 1) / kWidth;
  const size_t slots = n_clusters * kWidth;
  cl.width = kWidth;
  cl.atoms.assign(slots, ff::kPadAtom);
  cl.slot_types.assign(slots, 0);
  cl.slot_charges.assign(slots, 0.0);
  const auto type_ids = topo_->type_ids();
  const auto charges = topo_->charges();
  std::vector<uint32_t> slot_of(atom_count);
  Slots slot(slots);
  double max_abs = 0.0;
  {
    std::vector<uint32_t> fill(cell_start.begin(), cell_start.end() - 1);
    for (uint32_t atom = 0; atom < atom_count; ++atom) {
      const uint32_t s = fill[cell_of[atom]]++;
      cl.atoms[s] = atom;
      cl.slot_types[s] = type_ids[atom];
      cl.slot_charges[s] = charges[atom];
      slot_of[atom] = s;
      const Vec3& p = positions[atom];
      bool sane = true;
      for (int ax = 0; ax < 3; ++ax) {
        sane = sane && std::abs(p[ax]) <= kWildEdges * edges[ax];
      }
      if (!sane) continue;
      for (int ax = 0; ax < 3; ++ax) {
        slot.pos[ax][s] = p[ax];
        max_abs = std::max(max_abs, std::abs(p[ax]));
      }
    }
  }

  // The boxes, their gaps and the cell runs (located among wrapped
  // coordinates) carry a few roundings of the largest coordinate (~1e-15
  // relative) that the exact test does not, so culling at reach plus 1e-9
  // of the largest length in play never drops a pair the exact test keeps.
  const double cull = reach + 1e-9 * (reach + max_abs +
                                      std::max({edges.x, edges.y, edges.z}));
  const double cull2 = cull * cull;
  const double reach2 = reach * reach;
  const Vec3 inv_edges{1.0 / edges.x, 1.0 / edges.y, 1.0 / edges.z};

  std::vector<Bounds> group_box(slots / kJWidth);
  for (size_t g = 0; g < group_box.size(); ++g) {
    group_box[g] =
        slot.bounds(g * kJWidth, (g + 1) * kJWidth, edges, inv_edges);
  }
  std::vector<Bounds> cluster_box(n_clusters);
  for (size_t c = 0; c < n_clusters; ++c) {
    cluster_box[c] =
        slot.bounds(c * kWidth, (c + 1) * kWidth, edges, inv_edges);
  }

  // One tile: cull by box distance, then set every row's bits by the exact
  // test (padding and corrupt slots hold NaN and set none).
  auto tile_mask = [&](size_t ci, size_t g) -> uint64_t {
    const Bounds& bi = cluster_box[ci];
    const Bounds& bj = group_box[g];
    double d2 = 0.0;
    for (int ax = 0; ax < 3; ++ax) {
      const double gap = axis_gap(bj.center[ax] - bi.center[ax],
                                  bi.half[ax] + bj.half[ax], edges[ax],
                                  inv_edges[ax]);
      d2 += gap * gap;
    }
    if (!(d2 < cull2)) return 0;
    uint64_t mask = 0;
    const size_t sj = g * kJWidth;
    for (uint32_t a = 0; a < kWidth; ++a) {
      const size_t si = ci * kWidth + a;
      mask |= row_bits(slot.pos[0][si], slot.pos[1][si], slot.pos[2][si],
                       &slot.pos[0][sj], &slot.pos[1][sj], &slot.pos[2][sj],
                       edges, reach2)
              << (a * kJWidth);
    }
    if (g < 2 * ci + 2) mask &= kDiagonal[g - 2 * ci];
    return mask;
  };

  const util::ChunkPlan plan =
      util::plan_chunks(n_clusters, kMinChunkClusters, kMaxChunks);
  chunk_entries_.resize(plan.chunks);
  auto search = [&](size_t chunk) {
    std::vector<ff::ClusterPairEntry>& out = chunk_entries_[chunk];
    out.clear();
    for (size_t ci = plan.begin(chunk); ci < plan.end(chunk); ++ci) {
      const Bounds& bi = cluster_box[ci];
      if (!(bi.half[0] >= 0.0)) continue;  // padding or corrupt atoms only
      Runs runs[3];
      for (int ax = 0; ax < 3; ++ax) {
        runs[ax] = axis_runs(bi.center[ax], bi.half[ax], cull, edges[ax],
                             n[ax]);
      }
      // Slots of the cluster's excluded partners: tiles outside them skip
      // the exclusion pass.
      size_t excl_lo = slots;
      size_t excl_hi = 0;
      for (uint32_t a = 0; a < kWidth; ++a) {
        const uint32_t atom = cl.atoms[ci * kWidth + a];
        if (atom == ff::kPadAtom) continue;
        for (uint32_t k = excl_begin_[atom]; k < excl_begin_[atom + 1]; ++k) {
          excl_lo = std::min<size_t>(excl_lo, slot_of[excl_[k]]);
          excl_hi = std::max<size_t>(excl_hi, slot_of[excl_[k]]);
        }
      }
      auto visit = [&](size_t g) {
        uint64_t mask = tile_mask(ci, g);
        if (mask != 0 && g * kJWidth <= excl_hi &&
            g * kJWidth + kJWidth > excl_lo) {
          for (uint32_t a = 0; a < kWidth; ++a) {
            if (((mask >> (a * kJWidth)) & 0xfu) == 0) continue;
            const uint32_t atom = cl.atoms[ci * kWidth + a];
            for (uint32_t k = excl_begin_[atom]; k < excl_begin_[atom + 1];
                 ++k) {
              const uint32_t t = slot_of[excl_[k]];
              if (t / kJWidth == g) {
                mask &= ~(uint64_t{1} << (a * kJWidth + t % kJWidth));
              }
            }
          }
        }
        if (mask != 0) {
          out.push_back({static_cast<uint32_t>(ci), static_cast<uint32_t>(g),
                         mask});
        }
      };
      // Cell runs in ascending cell order give ascending, disjoint slot
      // ranges, so j-groups come out sorted; a group straddling two ranges
      // is visited once.  j slots never precede the cluster's own.
      size_t next = 2 * ci;
      for (int rz = 0; rz < runs[2].count; ++rz) {
        for (int z = runs[2].lo[rz]; z <= runs[2].hi[rz]; ++z) {
          for (int ry = 0; ry < runs[1].count; ++ry) {
            for (int y = runs[1].lo[ry]; y <= runs[1].hi[ry]; ++y) {
              const size_t row = static_cast<size_t>(n[0]) * (y + n[1] * z);
              for (int rx = 0; rx < runs[0].count; ++rx) {
                const size_t s_begin = cell_start[row + runs[0].lo[rx]];
                const size_t s_end = cell_start[row + runs[0].hi[rx] + 1];
                if (s_end == s_begin) continue;
                const size_t g_end = (s_end + kJWidth - 1) / kJWidth;
                for (size_t g = std::max(next, s_begin / kJWidth); g < g_end;
                     ++g) {
                  visit(g);
                }
                next = std::max(next, g_end);
              }
            }
          }
        }
      }
    }
  };
  if (runtime_ && plan.chunks > 1) {
    runtime_->parallel_for(plan.chunks, search);
  } else {
    for (size_t c = 0; c < plan.chunks; ++c) search(c);
  }

  size_t total = 0;
  for (const auto& chunk : chunk_entries_) total += chunk.size();
  cl.entries.clear();
  cl.entries.reserve(total);
  cl.real_pairs = 0;
  cl.active_rows = 0;
  for (const auto& chunk : chunk_entries_) {
    for (const ff::ClusterPairEntry& e : chunk) {
      cl.real_pairs += static_cast<size_t>(std::popcount(e.mask));
      cl.active_rows += active_rows_of(e.mask);
    }
    cl.entries.insert(cl.entries.end(), chunk.begin(), chunk.end());
  }

  if (!cluster_mode_) decode_pairs(atom_count);
  reference_positions_.assign(positions.begin(), positions.end());
  ++build_count_;
}

void NeighborList::decode_pairs(size_t atom_count) {
  const ff::ClusterPairList& cl = clusters_;
  auto for_each_pair = [&cl](auto&& fn) {
    for (const ff::ClusterPairEntry& e : cl.entries) {
      for (uint64_t m = e.mask; m != 0; m &= m - 1) {
        const auto bit = static_cast<uint32_t>(std::countr_zero(m));
        const uint32_t i = cl.atoms[e.ci * kWidth + bit / kJWidth];
        const uint32_t j = cl.atoms[e.cj * kJWidth + bit % kJWidth];
        fn(std::min(i, j), std::max(i, j));
      }
    }
  };
  // Count each atom's pairs and scatter them into its run of pairs_, so
  // only one flat copy is ever alive.
  std::vector<size_t> start(atom_count + 1, 0);
  for_each_pair([&](uint32_t i, uint32_t) { ++start[i + 1]; });
  std::partial_sum(start.begin(), start.end(), start.begin());
  pairs_.resize(start.back());
  {
    std::vector<size_t> at(start.begin(), start.end() - 1);
    for_each_pair([&](uint32_t i, uint32_t j) { pairs_[at[i]++] = {i, j}; });
  }

  // Then sort each chunk of consecutive runs by (i, j), in cache: stable
  // counting passes by the bytes of j, lowest first, and a last one into
  // the runs by i.  The pairs are unique, so any (i, j) sort gives the same
  // bytes.
  const int j_bytes = (std::bit_width(atom_count) + 7) / 8;
  const util::ChunkPlan plan =
      util::plan_chunks(atom_count, kMinChunkAtoms, kMaxChunks);
  auto sort_chunk = [&](size_t chunk) {
    const size_t a0 = plan.begin(chunk);
    const size_t a1 = plan.end(chunk);
    ff::PairEntry* const block = pairs_.data() + start[a0];
    const size_t n = start[a1] - start[a0];
    std::vector<ff::PairEntry> scratch(n);
    ff::PairEntry* from = block;
    ff::PairEntry* to = scratch.data();
    auto digit = [](const ff::PairEntry& p, int b) {
      return (p.j >> (8 * b)) & 0xffu;
    };
    std::vector<size_t> at(256 * static_cast<size_t>(j_bytes), 0);
    for (size_t k = 0; k < n; ++k) {
      for (int b = 0; b < j_bytes; ++b) ++at[256 * b + digit(from[k], b)];
    }
    for (int b = 0; b < j_bytes; ++b) {
      size_t* next = at.data() + 256 * b;
      std::exclusive_scan(next, next + 256, next, size_t{0});
      for (size_t k = 0; k < n; ++k) to[next[digit(from[k], b)]++] = from[k];
      std::swap(from, to);
    }
    std::vector<size_t> next(a1 - a0);
    for (size_t a = a0; a < a1; ++a) next[a - a0] = start[a] - start[a0];
    for (size_t k = 0; k < n; ++k) to[next[from[k].i - a0]++] = from[k];
    if (to != block) std::copy(to, to + n, block);
  };
  if (runtime_ && plan.chunks > 1) {
    runtime_->parallel_for(plan.chunks, sort_chunk);
  } else {
    for (size_t c = 0; c < plan.chunks; ++c) sort_chunk(c);
  }
}

bool NeighborList::needs_rebuild(std::span<const Vec3> positions,
                                 const Box& box) const {
  static auto& check_count =
      obs::MetricsRegistry::global().counter("md.neighbor.skin_check.count");
  static auto& hot_hits =
      obs::MetricsRegistry::global().counter("md.neighbor.skin_check.hot_hit");
  check_count.add();
  if (reference_positions_.size() != positions.size()) return true;
  const double limit2 = 0.25 * skin_ * skin_;
  auto exceeds = [&](size_t i) {
    // Raw displacement bounds the minimum-image displacement from above
    // (the per-axis wrap never increases a component's magnitude), so a
    // small raw distance proves the atom is inside the half-skin without
    // paying the three divisions inside Box::min_image.  Only atoms past
    // the raw bound — in practice none until a rebuild is due — fall
    // through to the exact check, which keeps the rebuild decision
    // identical to the plain loop.
    const Vec3 d = positions[i] - reference_positions_[i];
    if (norm2(d) <= limit2) return false;
    return box.distance2(positions[i], reference_positions_[i]) > limit2;
  };
  // The atom that tripped the previous check keeps drifting until the next
  // rebuild resets its reference, so testing it first turns the positive
  // case into O(1).
  if (hot_atom_ < positions.size() && exceeds(hot_atom_)) {
    hot_hits.add();
    return true;
  }
  for (size_t i = 0; i < positions.size(); ++i) {
    if (exceeds(i)) {
      hot_atom_ = static_cast<uint32_t>(i);
      return true;
    }
  }
  return false;
}

bool NeighborList::update(std::span<const Vec3> positions, const Box& box) {
  if (!needs_rebuild(positions, box)) return false;
  build(positions, box);
  return true;
}

}  // namespace antmd::md
