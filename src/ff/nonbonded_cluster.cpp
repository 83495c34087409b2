#include "ff/nonbonded_cluster.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "ff/nonbonded_simd.hpp"
#include "util/error.hpp"

namespace antmd::ff {

NonbondedKernel parse_nonbonded_kernel(const std::string& name) {
  if (name == "pair") return NonbondedKernel::kPair;
  if (name == "cluster") return NonbondedKernel::kCluster;
  throw ConfigError("nonbonded_kernel must be \"pair\" or \"cluster\", got \"" +
                    name + "\"");
}

const char* to_string(NonbondedKernel kernel) {
  return kernel == NonbondedKernel::kPair ? "pair" : "cluster";
}

void gather_cluster_coords(const ClusterPairList& list,
                           std::span<const Vec3> pos) {
  const size_t slots = list.atoms.size();
  list.sx.resize(slots);
  list.sy.resize(slots);
  list.sz.resize(slots);
  for (size_t s = 0; s < slots; ++s) {
    const uint32_t atom = list.atoms[s];
    if (atom == kPadAtom) {
      // Never read through the mask; any finite value works.
      list.sx[s] = 0.0;
      list.sy[s] = 0.0;
      list.sz[s] = 0.0;
      continue;
    }
    const Vec3& p = pos[atom];
    list.sx[s] = p.x;
    list.sy[s] = p.y;
    list.sz[s] = p.z;
  }
}

namespace {

// The inner loop, specialized at compile time on whether an electrostatics
// table is present, whether both lambda scales are exactly 1 (x * 1.0 == x
// for every double, so skipping the multiply is bit-identical), and whether
// every table covers the cutoff (s_max >= cutoff², so the eval's own range
// check can never fire and is skipped).  kSingleType handles the common
// single-species case: the lone table view lives in registers for the whole
// loop, so per-pair type loads and grid indexing disappear.  All variants
// produce bit-identical results to the generic path; they only shed work
// that is provably dead.
template <bool kHasElec, bool kUnitScale, bool kTightTables, bool kSingleType>
void cluster_entries_impl(const ClusterPairList& list,
                          std::span<const ClusterPairEntry> entries,
                          std::span<const RadialTableView> grid,
                          size_t n_types, const RadialTableView& elec,
                          double cutoff2, const Box& box,
                          FixedForceArray& forces, EnergyBreakdown& energy,
                          Mat3& virial, double vdw_scale,
                          double charge_product_scale) {
  const double* sx = list.sx.data();
  const double* sy = list.sy.data();
  const double* sz = list.sz.data();
  const uint32_t* types = list.slot_types.data();
  const double* charges = list.slot_charges.data();
  const Vec3 edges = box.edges();
  const double hx = 0.5 * edges.x;
  const double hy = 0.5 * edges.y;
  const double hz = 0.5 * edges.z;

  auto eval = [](const RadialTableView& v, double r2) {
    if constexpr (kTightTables) {
      return evaluate_view_incutoff(v, r2);
    } else {
      return evaluate_view(v, r2);
    }
  };
  // By-value copy for the single-type case: a local aggregate the compiler
  // can keep entirely in registers across the loop.
  const RadialTableView only_view =
      kSingleType ? grid.front() : RadialTableView{};

  int64_t e_vdw_q = 0;
  int64_t e_elec_q = 0;
  // Canonical virial grouping: 8 sub-accumulators per component, indexed
  // s = (row parity)*4 + column.  Each sub-accumulator sums its own pairs
  // in entry order (rows ascending within an entry — the mask-bit walk is
  // row-major), and the partials are merged in ascending s at the end.
  // This is exactly the lane structure of the SIMD evaluators: 4 lanes
  // cover one tile row (lane b == column b, even/odd rows in separate
  // vector accumulators), 8 lanes cover an even/odd row pair — so scalar
  // and vector virials match bit for bit.
  constexpr unsigned kVSub = 2 * kClusterJWidth;
  double vc[9][kVSub] = {};

  // Entries arrive sorted by (ci, cj), so consecutive tiles share their
  // i-cluster.  The i-side quanta accumulate across the whole run and hit
  // memory once per run (~tens of tiles) instead of once per tile; integer
  // addition is order-independent, so per-atom totals are unchanged.
  int64_t fi[kClusterWidth][3] = {};
  uint32_t run_ci = entries.empty() ? 0u : entries.front().ci;
  auto flush_fi = [&](uint32_t ci) {
    const size_t b = static_cast<size_t>(ci) * kClusterWidth;
    for (unsigned k = 0; k < kClusterWidth; ++k) {
      if ((fi[k][0] | fi[k][1] | fi[k][2]) != 0) {
        forces.add_quanta(list.atoms[b + k], {fi[k][0], fi[k][1], fi[k][2]});
        fi[k][0] = 0; fi[k][1] = 0; fi[k][2] = 0;
      }
    }
  };

  for (const ClusterPairEntry& e : entries) {
    if (e.ci != run_ci) {
      flush_fi(run_ci);
      run_ci = e.ci;
    }
    const size_t bi = static_cast<size_t>(e.ci) * kClusterWidth;
    const size_t bj = static_cast<size_t>(e.cj) * kClusterJWidth;
    // The j-side quanta stay in registers for the tile; one scatter per
    // touched slot at tile end instead of a memory round trip per pair.
    int64_t fj[kClusterJWidth][3] = {};

    for (uint64_t m = e.mask; m != 0; m &= m - 1) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(m));
      const unsigned a = bit >> 2;
      const unsigned b = bit & 3;

      // Exact minimum image with a half-box fast path: for |d| < L/2 the
      // wrap count nearbyint(d/L) is exactly zero (division is monotone and
      // nearbyint rounds half to even), so skipping the division changes no
      // bit relative to Box::min_image.  The slow branch is the verbatim
      // Box::min_image arithmetic, taken only by boundary-crossing pairs.
      double dx = sx[bi + a] - sx[bj + b];
      double dy = sy[bi + a] - sy[bj + b];
      double dz = sz[bi + a] - sz[bj + b];
      if (dx >= hx || dx <= -hx) dx -= std::nearbyint(dx / edges.x) * edges.x;
      if (dy >= hy || dy <= -hy) dy -= std::nearbyint(dy / edges.y) * edges.y;
      if (dz >= hz || dz <= -hz) dz -= std::nearbyint(dz / edges.z) * edges.z;

      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cutoff2) continue;

      const RadialEval vdw =
          kSingleType
              ? eval(only_view, r2)
              : eval(grid[types[bi + a] * n_types + types[bj + b]], r2);
      double f_over_r;
      if constexpr (kUnitScale) {
        f_over_r = vdw.force_over_r;
        e_vdw_q += fixed::quantize_round(vdw.energy, fixed::kEnergyScale);
      } else {
        f_over_r = vdw.force_over_r * vdw_scale;
        e_vdw_q += fixed::quantize_round(vdw.energy * vdw_scale,
                                         fixed::kEnergyScale);
      }
      if constexpr (kHasElec) {
        double qq = charges[bi + a] * charges[bj + b];
        if constexpr (!kUnitScale) qq *= charge_product_scale;
        if (qq != 0.0) {
          const RadialEval el = eval(elec, r2);
          f_over_r += qq * el.force_over_r;
          e_elec_q +=
              fixed::quantize_round(qq * el.energy, fixed::kEnergyScale);
        }
      }

      const double fx = f_over_r * dx;
      const double fy = f_over_r * dy;
      const double fz = f_over_r * dz;
      const int64_t qx = fixed::quantize_round(fx, fixed::kForceScale);
      const int64_t qy = fixed::quantize_round(fy, fixed::kForceScale);
      const int64_t qz = fixed::quantize_round(fz, fixed::kForceScale);
      fi[a][0] += qx; fi[a][1] += qy; fi[a][2] += qz;
      fj[b][0] -= qx; fj[b][1] -= qy; fj[b][2] -= qz;
      const unsigned s = ((a & 1u) << 2) | b;
      vc[0][s] += dx * fx; vc[1][s] += dx * fy; vc[2][s] += dx * fz;
      vc[3][s] += dy * fx; vc[4][s] += dy * fy; vc[5][s] += dy * fz;
      vc[6][s] += dz * fx; vc[7][s] += dz * fy; vc[8][s] += dz * fz;
    }

    for (unsigned k = 0; k < kClusterJWidth; ++k) {
      // Padded slots (and untouched lanes) carry all-zero quanta.
      if ((fj[k][0] | fj[k][1] | fj[k][2]) != 0) {
        forces.add_quanta(list.atoms[bj + k], {fj[k][0], fj[k][1], fj[k][2]});
      }
    }
  }
  if (!entries.empty()) flush_fi(run_ci);

  Mat3 v;
  for (unsigned k = 0; k < 9; ++k) {
    double t = vc[k][0];
    for (unsigned s = 1; s < kVSub; ++s) t += vc[k][s];
    v.m[k] = t;
  }
  virial += v;
  energy.vdw.add_raw(e_vdw_q);
  energy.coulomb_real.add_raw(e_elec_q);
}

void run_scalar(const ClusterPairList& list,
                std::span<const ClusterPairEntry> entries,
                std::span<const RadialTableView> grid, size_t n_types,
                const RadialTableView& elec, bool has_elec, bool unit,
                bool tight, double cutoff2, const Box& box,
                FixedForceArray& forces, EnergyBreakdown& energy,
                Mat3& virial, double vdw_scale,
                double charge_product_scale) {
  auto run = [&](auto impl) {
    impl(list, entries, grid, n_types, elec, cutoff2, box, forces, energy,
         virial, vdw_scale, charge_product_scale);
  };
  const bool single = n_types == 1;
  if (has_elec) {
    if (unit && tight && single)
      run(cluster_entries_impl<true, true, true, true>);
    else if (unit && tight)
      run(cluster_entries_impl<true, true, true, false>);
    else if (unit)
      run(cluster_entries_impl<true, true, false, false>);
    else if (tight)
      run(cluster_entries_impl<true, false, true, false>);
    else
      run(cluster_entries_impl<true, false, false, false>);
  } else {
    if (unit && tight && single)
      run(cluster_entries_impl<false, true, true, true>);
    else if (unit && tight)
      run(cluster_entries_impl<false, true, true, false>);
    else if (unit)
      run(cluster_entries_impl<false, true, false, false>);
    else if (tight)
      run(cluster_entries_impl<false, false, true, false>);
    else
      run(cluster_entries_impl<false, false, false, false>);
  }
}

}  // namespace

void compute_cluster_entries(const ClusterPairList& list,
                             std::span<const ClusterPairEntry> entries,
                             const PairTableSet& tables, const Box& box,
                             FixedForceArray& forces, EnergyBreakdown& energy,
                             Mat3& virial, double vdw_scale,
                             double charge_product_scale) {
  ANTMD_REQUIRE(list.width == kClusterWidth, "unsupported cluster width");
  // ISA dispatch: every SIMD variant is bit-identical to the scalar path,
  // so this only changes speed.  The gather arena gate falls back to
  // scalar when custom tables broke geometry uniformity.
  static const ClusterTileLoop dispatched =
      cluster_tile_loop(active_kernel_isa());
  const ClusterTileLoop loop = tables.simd_arena().valid
                                   ? dispatched
                                   : &compute_cluster_entries_scalar;
  loop(list, entries, tables, box, forces, energy, virial, vdw_scale,
       charge_product_scale);
}

void compute_cluster_entries_scalar(
    const ClusterPairList& list, std::span<const ClusterPairEntry> entries,
    const PairTableSet& tables, const Box& box, FixedForceArray& forces,
    EnergyBreakdown& energy, Mat3& virial, double vdw_scale,
    double charge_product_scale) {
  ANTMD_REQUIRE(list.width == kClusterWidth, "unsupported cluster width");
  const double cutoff2 = tables.model().cutoff * tables.model().cutoff;
  const bool has_elec = tables.elec_table().has_value();
  const RadialTableView elec =
      has_elec ? tables.elec_table()->view() : RadialTableView{};

  // Dense type-pair grid of by-value table views: the triangular
  // (bounds-checked) lookup runs once per type pair per call instead of once
  // per interaction, and each lookup in the loop reads the per-bin packed
  // knot layout with no pointer chase through the table object.
  const size_t n_types = tables.type_count();
  std::vector<RadialTableView> grid(n_types * n_types);
  bool tight = !has_elec || elec.s_max >= cutoff2;
  for (uint32_t a = 0; a < n_types; ++a) {
    for (uint32_t b = 0; b < n_types; ++b) {
      grid[a * n_types + b] = tables.vdw_table(a, b).view();
      tight = tight && grid[a * n_types + b].s_max >= cutoff2;
    }
  }
  const bool unit = vdw_scale == 1.0 && charge_product_scale == 1.0;

  run_scalar(list, entries, std::span<const RadialTableView>(grid), n_types,
             elec, has_elec, unit, tight, cutoff2, box, forces, energy, virial,
             vdw_scale, charge_product_scale);
}

util::ChunkPlan cluster_chunk_plan(const ClusterPairList& list) {
  // The chunk partition is a function of the list alone — never the thread
  // count — and chunk virial partials are reduced in ascending chunk order,
  // so even the double-precision virial is identical at any thread count.
  constexpr size_t kMinChunkEntries = 256;
  constexpr size_t kMaxChunks = 16;
  return util::plan_chunks(list.entries.size(), kMinChunkEntries, kMaxChunks);
}

void compute_clusters_chunk(const ClusterPairList& list,
                            const PairTableSet& tables, const Box& box,
                            const util::ChunkPlan& plan, size_t chunk,
                            size_t lane, double vdw_scale,
                            double charge_product_scale) {
  PartialSums& s = list.scratch;
  const size_t lo = plan.begin(chunk);
  const std::span<const ClusterPairEntry> entries(list.entries.data() + lo,
                                                  plan.end(chunk) - lo);
  compute_cluster_entries(list, entries, tables, box, s.lane_forces[lane],
                          s.slot_energy[chunk], s.slot_virial[chunk],
                          vdw_scale, charge_product_scale);
}

void compute_clusters(const ClusterPairList& list, const PairTableSet& tables,
                      std::span<const Vec3> pos, const Box& box,
                      ForceResult& out, double vdw_scale,
                      double charge_product_scale, ExecutionContext* exec) {
  gather_cluster_coords(list, pos);
  const util::ChunkPlan plan = cluster_chunk_plan(list);
  if (plan.chunks == 0) return;

  const bool fan_out = exec != nullptr && exec->parallel() && plan.chunks > 1;
  const size_t lanes = fan_out ? exec->runtime()->lanes() : 1;
  list.scratch.prepare(lanes, out.forces.size(), plan.chunks);
  if (fan_out) {
    exec->parallel_for(plan.chunks, [&](size_t c) {
      compute_clusters_chunk(list, tables, box, plan, c,
                             util::TaskRuntime::current_lane(), vdw_scale,
                             charge_product_scale);
    });
  } else {
    for (size_t c = 0; c < plan.chunks; ++c) {
      compute_clusters_chunk(list, tables, box, plan, c, 0, vdw_scale,
                             charge_product_scale);
    }
  }
  list.scratch.reduce(out);
}

}  // namespace antmd::ff
