#include "md/neighbor.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace antmd::md {

CellList::CellList(const Box& box, double cell_size) {
  ANTMD_REQUIRE(cell_size > 0, "cell size must be positive");
  nx_ = std::max(1, static_cast<int>(box.edges().x / cell_size));
  ny_ = std::max(1, static_cast<int>(box.edges().y / cell_size));
  nz_ = std::max(1, static_cast<int>(box.edges().z / cell_size));
  cells_.resize(cell_count());
}

size_t CellList::index(int cx, int cy, int cz) const {
  auto wrap = [](int c, int n) {
    int m = c % n;
    return m < 0 ? m + n : m;
  };
  return static_cast<size_t>(wrap(cx, nx_)) +
         static_cast<size_t>(nx_) *
             (static_cast<size_t>(wrap(cy, ny_)) +
              static_cast<size_t>(ny_) * static_cast<size_t>(wrap(cz, nz_)));
}

void CellList::assign(std::span<const Vec3> positions, const Box& box) {
  for (auto& c : cells_) c.clear();
  atom_cells_.resize(positions.size());
  for (uint32_t i = 0; i < positions.size(); ++i) {
    Vec3 w = box.wrap(positions[i]);
    int cx = std::min(nx_ - 1,
                      static_cast<int>(w.x / box.edges().x * nx_));
    int cy = std::min(ny_ - 1,
                      static_cast<int>(w.y / box.edges().y * ny_));
    int cz = std::min(nz_ - 1,
                      static_cast<int>(w.z / box.edges().z * nz_));
    atom_cells_[i] = {cx, cy, cz};
    cells_[index(cx, cy, cz)].push_back(i);
  }
}

const std::vector<uint32_t>& CellList::cell(int cx, int cy, int cz) const {
  return cells_[index(cx, cy, cz)];
}

std::array<int, 3> CellList::cell_of(uint32_t atom) const {
  return atom_cells_[atom];
}

NeighborList::NeighborList(const Topology& topo, double cutoff, double skin,
                           bool cluster_mode)
    : topo_(&topo), cutoff_(cutoff), skin_(skin), cluster_mode_(cluster_mode) {
  ANTMD_REQUIRE(cutoff > 0 && skin >= 0, "bad neighbor-list parameters");
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
  CellList cells(box, reach);
  cells.assign(positions, box);
  const double reach2 = reach * reach;

  pairs_.clear();
  // Half-stencil enumeration so each unordered pair is visited once when
  // the cell grid is at least 3 cells wide on each axis; fall back to the
  // full stencil with i<j filtering for small grids.
  const bool small_grid =
      cells.nx() < 3 || cells.ny() < 3 || cells.nz() < 3;

  auto enumerate_slice = [&](int cz, std::vector<ff::PairEntry>& out) {
    for (int cy = 0; cy < cells.ny(); ++cy) {
      for (int cx = 0; cx < cells.nx(); ++cx) {
        const auto& home = cells.cell(cx, cy, cz);
        // Pairs within the home cell.
        for (size_t a = 0; a < home.size(); ++a) {
          for (size_t b = a + 1; b < home.size(); ++b) {
            uint32_t i = std::min(home[a], home[b]);
            uint32_t j = std::max(home[a], home[b]);
            if (box.distance2(positions[i], positions[j]) >= reach2) continue;
            if (topo_->is_excluded(i, j)) continue;
            out.push_back({i, j});
          }
        }
        // Pairs with neighbouring cells.
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0 && dz == 0) continue;
              // Half stencil: take only the lexicographically positive
              // offsets so each cell pair is visited once.
              if (!small_grid) {
                if (dz < 0) continue;
                if (dz == 0 && dy < 0) continue;
                if (dz == 0 && dy == 0 && dx < 0) continue;
              }
              const auto& other = cells.cell(cx + dx, cy + dy, cz + dz);
              for (uint32_t ai : home) {
                for (uint32_t bj : other) {
                  if (small_grid && ai >= bj) continue;
                  uint32_t i = std::min(ai, bj);
                  uint32_t j = std::max(ai, bj);
                  if (box.distance2(positions[i], positions[j]) >= reach2) {
                    continue;
                  }
                  if (topo_->is_excluded(i, j)) continue;
                  out.push_back({i, j});
                }
              }
            }
          }
        }
      }
    }
  };

  if (runtime_ && runtime_->parallel() && cells.nz() > 1) {
    // Each z-slice fills its own vector; concatenation in ascending slice
    // order plus the final sort below leaves pairs_ independent of thread
    // scheduling (the sort alone already guarantees that, the fixed order
    // just keeps intermediate state reproducible too).
    std::vector<std::vector<ff::PairEntry>> slices(
        static_cast<size_t>(cells.nz()));
    runtime_->parallel_for(slices.size(), [&](size_t cz) {
      enumerate_slice(static_cast<int>(cz), slices[cz]);
    });
    size_t total = 0;
    for (const auto& s : slices) total += s.size();
    pairs_.reserve(total);
    for (const auto& s : slices) {
      pairs_.insert(pairs_.end(), s.begin(), s.end());
    }
  } else {
    for (int cz = 0; cz < cells.nz(); ++cz) enumerate_slice(cz, pairs_);
  }

  std::sort(pairs_.begin(), pairs_.end(),
            [](const ff::PairEntry& a, const ff::PairEntry& b) {
              return a.i != b.i ? a.i < b.i : a.j < b.j;
            });
  // With a small grid the same cell pair can be visited through two
  // different wrap-around offsets; dedupe to keep the contract exact.
  pairs_.erase(std::unique(pairs_.begin(), pairs_.end(),
                           [](const ff::PairEntry& a, const ff::PairEntry& b) {
                             return a.i == b.i && a.j == b.j;
                           }),
               pairs_.end());

  reference_positions_.assign(positions.begin(), positions.end());
  if (cluster_mode_) build_clusters(cells, positions, box);
  ++build_count_;
}

void NeighborList::build_clusters(const CellList& cells,
                                  std::span<const Vec3> positions,
                                  const Box& box) {
  ff::ClusterPairList& cl = clusters_;
  const uint32_t w = ff::kClusterWidth;
  const size_t atom_count = positions.size();

  // Fine-grid atom order: bin atoms on a grid sized so each cell holds
  // ~width atoms (much finer than the reach-sized build cells) and emit
  // cell-major, ascending atom index within a cell.  Consecutive slots are
  // then spatially adjacent at the *cluster* scale, so width×width tiles
  // stay densely masked — with reach-sized cells a width-8 cluster would
  // span unrelated corners of a cell and the masks go sparse.
  const double target_edge =
      std::cbrt(box.volume() * static_cast<double>(w) /
                std::max<double>(1.0, static_cast<double>(atom_count)));
  CellList fine(box, std::max(target_edge, 1e-6));
  fine.assign(positions, box);
  std::vector<uint32_t> order;
  order.reserve(atom_count);
  for (int cz = 0; cz < fine.nz(); ++cz) {
    for (int cy = 0; cy < fine.ny(); ++cy) {
      for (int cx = 0; cx < fine.nx(); ++cx) {
        const auto& c = fine.cell(cx, cy, cz);
        order.insert(order.end(), c.begin(), c.end());
      }
    }
  }

  const size_t n_clusters = (atom_count + w - 1) / w;
  const size_t slots = n_clusters * w;
  cl.width = w;
  cl.atoms.assign(slots, ff::kPadAtom);
  cl.slot_types.assign(slots, 0);
  cl.slot_charges.assign(slots, 0.0);
  const auto type_ids = topo_->type_ids();
  const auto charges = topo_->charges();
  std::vector<uint32_t> slot_of(atom_count);
  for (size_t s = 0; s < order.size(); ++s) {
    const uint32_t atom = order[s];
    cl.atoms[s] = atom;
    cl.slot_types[s] = type_ids[atom];
    cl.slot_charges[s] = charges[atom];
    slot_of[atom] = static_cast<uint32_t>(s);
  }

  // Every flat pair becomes exactly one mask bit of its (ci, cj) tile, so
  // the tile list encodes the flat pair set by construction — the kernels
  // compute identical interactions and the equivalence tests can assert
  // exact pair-count accounting.
  // Canonical orientation: the lower slot takes the i side.  ci indexes
  // width-slot i-clusters, cj indexes 4-slot j-groups (ff::kClusterJWidth),
  // so each unordered pair lands in exactly one tile bit.
  std::vector<std::pair<uint64_t, uint64_t>> keyed;
  keyed.reserve(pairs_.size());
  constexpr uint32_t jw = ff::kClusterJWidth;
  for (const ff::PairEntry& p : pairs_) {
    uint32_t si = slot_of[p.i];
    uint32_t sj = slot_of[p.j];
    if (si > sj) std::swap(si, sj);
    const uint32_t ci = si / w;
    const uint32_t cj = sj / jw;
    const uint32_t a = si % w;
    const uint32_t b = sj % jw;
    keyed.emplace_back((static_cast<uint64_t>(ci) << 32) | cj,
                       uint64_t{1} << (a * jw + b));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  // Advisory periodic shift of cj relative to ci, from the cells of the
  // clusters' lead atoms (a cluster can straddle a cell boundary; anything
  // that is not a clean one-cell wrap is recorded as "no wrap").
  auto shift_code = [&](uint32_t ci, uint32_t cj) {
    const auto cell_i = cells.cell_of(cl.atoms[ci * w]);
    const auto cell_j = cells.cell_of(cl.atoms[cj * jw]);
    const int dims[3] = {cells.nx(), cells.ny(), cells.nz()};
    int code = 0;
    int mult = 1;
    for (int ax = 0; ax < 3; ++ax) {
      const int d = cell_j[ax] - cell_i[ax];
      int s = 0;
      if (d > dims[ax] / 2) {
        s = -1;
      } else if (d < -(dims[ax] / 2)) {
        s = 1;
      }
      code += (s + 1) * mult;
      mult *= 3;
    }
    return static_cast<uint16_t>(code);
  };

  cl.entries.clear();
  cl.real_pairs = pairs_.size();
  cl.active_rows = 0;
  for (size_t k = 0; k < keyed.size();) {
    const uint64_t key = keyed[k].first;
    uint64_t mask = 0;
    while (k < keyed.size() && keyed[k].first == key) mask |= keyed[k++].second;
    ff::ClusterPairEntry e;
    e.ci = static_cast<uint32_t>(key >> 32);
    e.cj = static_cast<uint32_t>(key & 0xffffffffu);
    e.mask = mask;
    e.shift = shift_code(e.ci, e.cj);
    cl.entries.push_back(e);
    for (uint32_t a = 0; a < w; ++a) {
      if ((mask >> (ff::kClusterJWidth * a)) & 0xfu) ++cl.active_rows;
    }
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
