// Width-generic integer-SIMD tile loop, instantiated once per ISA by the
// nonbonded_simd_{avx2,avx512}.cpp TUs with their Traits class (see
// math/simd.hpp).  This header must only be included from a TU compiled
// with the matching -m flags *and* -ffp-contract=off.
//
// The kernel is a lane-for-lane transcription of the scalar tile loop in
// nonbonded_cluster.cpp, engineered so every fixed-point quantum and every
// virial bit matches the scalar kernel exactly:
//
//   - each double op is one IEEE instruction on the same operands, in the
//     scalar kernel's association order (no FMA: contraction is off);
//   - branches become blends chosen so untaken paths cannot perturb a
//     lane: `d - 0.0` (min-image fast path), `x * 1.0` (unit scales) and
//     clamp-to-last-bin are all bitwise identities, so applying them
//     unconditionally equals the scalar kernel's conditional skips — while
//     signed-zero-sensitive updates (virial adds, the qq != 0 force term)
//     blend the *previous* value back in rather than adding a masked-off
//     zero, which could flip -0.0 to +0.0;
//   - integer force/energy quanta of masked-off lanes are zeroed by an
//     AND, and adding integer zero is exact;
//   - table lookups clamp the bin index *before* the int conversion
//     (min-then-truncate equals the scalar truncate-then-clamp for every
//     non-negative u, and keeps dead-lane gathers inside the arena);
//   - the virial uses the canonical 8-sub-accumulator grouping
//     s = (row parity)*4 + column: lane (block, l) maps to exactly one s,
//     and buckets are merged in ascending s — the same summation tree as
//     the scalar kernel at every lane width;
//   - quantize-round vectorizes as nearbyint plus an exact ±1.0 tie fixup
//     before a truncating int64 conversion whose overflow behaviour
//     (0x8000...) matches the scalar static_cast on x86-64.
//
// Dead lanes (mask-off, out of cutoff, padded slots) may compute garbage —
// even inf/NaN from extrapolated table weights — but every accumulator
// update is masked, so garbage never lands anywhere.
#pragma once

#include <cstdint>
#include <span>

#include "ff/nonbonded.hpp"
#include "ff/nonbonded_cluster.hpp"
#include "math/fixed.hpp"
#include "math/spline.hpp"

namespace antmd::ff::simd_detail {

/// fixed::quantize_round over a vector: t = v*scale, round-to-nearest-even,
/// then push exact .5 ties away from zero (the scalar kernel's llround
/// semantics).  Ties only exist for |t| < 2^52, where the ±1.0 adjustment
/// is exact.
template <typename T>
inline typename T::VI quantize_round(typename T::VD v,
                                     typename T::VD scale) {
  using VD = typename T::VD;
  using Mask = typename T::Mask;
  const VD zero = T::zero();
  const VD one = T::bcast(1.0);
  const VD t = T::mul(v, scale);
  const VD r = T::round_cur(t);
  const VD d = T::sub(t, r);
  const Mask up = T::mask_and(T::cmp_eq(d, T::bcast(0.5)),
                              T::cmp_gt(t, zero));
  const Mask dn = T::mask_and(T::cmp_eq(d, T::bcast(-0.5)),
                              T::cmp_lt(t, zero));
  const VD adj = T::sub(T::blend(zero, one, up), T::blend(zero, one, dn));
  return T::cvtt_i64(T::add(r, adj));
}

template <typename T, bool kHasElec>
void cluster_entries_simd(const ClusterPairList& list,
                          std::span<const ClusterPairEntry> entries,
                          const SimdTableArena& arena, size_t n_types,
                          const RadialTableView& elec, double cutoff2,
                          const Box& box, FixedForceArray& forces,
                          EnergyBreakdown& energy, Mat3& virial,
                          double vdw_scale, double charge_product_scale) {
  using VD = typename T::VD;
  using VI = typename T::VI;
  using Idx = typename T::Idx;
  using Mask = typename T::Mask;
  // Column chunks per tile row and virial buckets per component.
  constexpr unsigned kCC = kClusterJWidth / T::kCols;
  constexpr unsigned kBuckets = (2 * kClusterJWidth) / T::kLanes;
  static_assert(kCC * T::kCols == kClusterJWidth);
  static_assert(kBuckets * T::kLanes == 2 * kClusterJWidth);
  const unsigned width = list.width;

  const double* sx = list.sx.data();
  const double* sy = list.sy.data();
  const double* sz = list.sz.data();
  const uint32_t* types = list.slot_types.data();
  const double* charges = list.slot_charges.data();
  const Vec3 edges = box.edges();
  const double hx = 0.5 * edges.x;
  const double hy = 0.5 * edges.y;
  const double hz = 0.5 * edges.z;

  const VD zero = T::zero();
  const VD one = T::bcast(1.0);
  const VD two = T::bcast(2.0);
  const VD mtwo = T::bcast(-2.0);
  const VD three = T::bcast(3.0);
  const VD hxv = T::bcast(hx), mhxv = T::bcast(-hx), exv = T::bcast(edges.x);
  const VD hyv = T::bcast(hy), mhyv = T::bcast(-hy), eyv = T::bcast(edges.y);
  const VD hzv = T::bcast(hz), mhzv = T::bcast(-hz), ezv = T::bcast(edges.z);
  const VD cut2v = T::bcast(cutoff2);
  const VD vscalev = T::bcast(vdw_scale);
  const VD cpsv = T::bcast(charge_product_scale);
  const VD fscalev = T::bcast(fixed::kForceScale);
  const VD escalev = T::bcast(fixed::kEnergyScale);

  // VDW tables: shared geometry, per-type-pair slabs in the gather arena.
  const double* vbase = arena.data.data();
  const VD v_smin = T::bcast(arena.s_min);
  const VD v_smax = T::bcast(arena.s_max);
  const VD v_invds = T::bcast(arena.inv_ds);
  const VD v_ds = T::bcast(arena.ds);
  const VD v_last = T::bcast(static_cast<double>(arena.last));
  const Idx stridev = T::idx_bcast(static_cast<int32_t>(arena.stride));
  const Idx eightv = T::idx_bcast(8);
  const int32_t ntypes32 = static_cast<int32_t>(n_types);

  // Electrostatic table: single table, own geometry, direct gather base.
  const double* ebase = elec.packed;
  const VD e_smin = T::bcast(elec.s_min);
  const VD e_smax = T::bcast(elec.s_max);
  const VD e_invds = T::bcast(elec.inv_ds);
  const VD e_ds = T::bcast(elec.ds);
  const VD e_last = T::bcast(static_cast<double>(elec.last));

  VI acc_ev = T::zero_i64();
  VI acc_ee = T::zero_i64();
  VD vacc[9][kBuckets];
  for (auto& comp : vacc)
    for (auto& b : comp) b = zero;

  alignas(64) int64_t lanes_i64[T::kLanes];
  alignas(64) double lanes_pd[T::kLanes];

  // The scalar integer sums run in uint64_t so they wrap, as the vector
  // adds do, when a corrupted input quantizes out of range.
  uint64_t fi[kClusterWidth][3] = {};
  uint32_t run_ci = entries.empty() ? 0u : entries.front().ci;
  auto flush_fi = [&](uint32_t ci) {
    const size_t b = static_cast<size_t>(ci) * width;
    for (unsigned k = 0; k < width; ++k) {
      if ((fi[k][0] | fi[k][1] | fi[k][2]) != 0) {
        forces.add_quanta(list.atoms[b + k],
                          {static_cast<int64_t>(fi[k][0]),
                           static_cast<int64_t>(fi[k][1]),
                           static_cast<int64_t>(fi[k][2])});
        fi[k][0] = 0; fi[k][1] = 0; fi[k][2] = 0;
      }
    }
  };

  // Exact minimum image, vectorized: the correction is computed for every
  // lane but blended against +0.0 outside the wrap branch, and d - 0.0 is
  // a bitwise identity (also for d == -0.0).
  auto min_image = [&](VD d, VD hv, VD mhv, VD ev) {
    const Mask m = T::mask_or(T::cmp_ge(d, hv), T::cmp_le(d, mhv));
    // No lane wraps (the common case for an interior tile): d - 0.0 is a
    // bitwise identity, so skipping the divide is exact.
    if (!T::mask_any(m)) return d;
    const VD corr = T::mul(T::round_cur(T::div(d, ev)), ev);
    return T::sub(d, T::blend(zero, corr, m));
  };
  // Hermite evaluation against geometry (smin, invds, lastv): bin index and
  // the four basis weights, ds pre-folded into h10/h11 as in the scalar
  // dot-product order h00*p0 + (h10*ds)*p1 + h01*p4 + (h11*ds)*p5.
  struct Basis { Idx bin; VD h00, h10ds, h01, h11ds; };
  auto basis = [&](VD r2, VD sminv, VD invdsv, VD lastv, VD dsv) {
    const VD s = T::max(r2, sminv);
    const VD u = T::mul(T::sub(s, sminv), invdsv);
    const Idx bin = T::idx_cvtt(T::min(u, lastv));
    const VD tloc = T::sub(u, T::idx_to_pd(bin));
    const VD t2 = T::mul(tloc, tloc);
    const VD t3 = T::mul(t2, tloc);
    const VD h00 = T::add(T::sub(T::mul(two, t3), T::mul(three, t2)), one);
    const VD h10 = T::add(T::sub(t3, T::mul(two, t2)), tloc);
    const VD h01 = T::add(T::mul(mtwo, t3), T::mul(three, t2));
    const VD h11 = T::sub(t3, t2);
    return Basis{bin, h00, T::mul(h10, dsv), h01, T::mul(h11, dsv)};
  };
  auto dot4 = [&](const Basis& w, VD p0, VD p1, VD p4, VD p5) {
    return T::add(T::add(T::add(T::mul(w.h00, p0), T::mul(w.h10ds, p1)),
                         T::mul(w.h01, p4)),
                  T::mul(w.h11ds, p5));
  };

  for (const ClusterPairEntry& e : entries) {
    if (e.ci != run_ci) {
      flush_fi(run_ci);
      run_ci = e.ci;
    }
    const size_t bi = static_cast<size_t>(e.ci) * width;
    const size_t bj = static_cast<size_t>(e.cj) * kClusterJWidth;
    const auto em = static_cast<uint32_t>(e.mask);

    // j-side statics, loaded once per tile.
    VD xj[kCC], yj[kCC], zj[kCC], qj[kCC];
    Idx tj[kCC];
    VI fjx[kCC], fjy[kCC], fjz[kCC];
    for (unsigned cc = 0; cc < kCC; ++cc) {
      const unsigned c0 = cc * T::kCols;
      xj[cc] = T::load_cols(sx + bj, c0);
      yj[cc] = T::load_cols(sy + bj, c0);
      zj[cc] = T::load_cols(sz + bj, c0);
      tj[cc] = T::idx_load_cols(types + bj, c0);
      qj[cc] = kHasElec ? T::load_cols(charges + bj, c0) : zero;
      fjx[cc] = T::zero_i64();
      fjy[cc] = T::zero_i64();
      fjz[cc] = T::zero_i64();
    }

    for (unsigned a = 0; a < width; a += T::kRows) {
      constexpr uint32_t kRowMask = (uint32_t{1} << (4 * T::kRows)) - 1;
      const uint32_t rowbits = (em >> (4 * a)) & kRowMask;
      if (rowbits == 0) continue;  // the row-skipping that streamed_fill
                                   // ratio accounts for
      const unsigned a1 = a + (T::kRows - 1);
      const VD xi = T::bcast_rows(sx[bi + a], sx[bi + a1]);
      const VD yi = T::bcast_rows(sy[bi + a], sy[bi + a1]);
      const VD zi = T::bcast_rows(sz[bi + a], sz[bi + a1]);
      const Idx tpb = T::idx_bcast_rows(
          static_cast<int32_t>(types[bi + a]) * ntypes32,
          static_cast<int32_t>(types[bi + a1]) * ntypes32);
      const VD qi = kHasElec ? T::bcast_rows(charges[bi + a], charges[bi + a1])
                             : zero;

      for (unsigned cc = 0; cc < kCC; ++cc) {
        constexpr uint32_t kBlockMask = (uint32_t{1} << T::kLanes) - 1;
        const uint32_t bits = (rowbits >> (cc * T::kCols)) & kBlockMask;
        if (bits == 0) continue;
        const Mask tm = T::mask_from_bits(bits);

        const VD dx = min_image(T::sub(xi, xj[cc]), hxv, mhxv, exv);
        const VD dy = min_image(T::sub(yi, yj[cc]), hyv, mhyv, eyv);
        const VD dz = min_image(T::sub(zi, zj[cc]), hzv, mhzv, ezv);
        const VD r2 = T::add(T::add(T::mul(dx, dx), T::mul(dy, dy)),
                             T::mul(dz, dz));
        const Mask active = T::mask_and(tm, T::cmp_lt(r2, cut2v));
        if (!T::mask_any(active)) continue;

        // VDW: each lane's (type pair, bin) selects 8 contiguous arena
        // doubles; load + transpose them in-register instead of gathering.
        const Basis w = basis(r2, v_smin, v_invds, v_last, v_ds);
        const Idx tp = T::idx_add(tpb, tj[cc]);
        const Idx g = T::idx_add(T::idx_mul(tp, stridev),
                                 T::idx_mul(w.bin, eightv));
        VD pv[8];
        T::load_packed8(vbase, g, pv);
        VD ve = dot4(w, pv[0], pv[1], pv[4], pv[5]);
        VD vf = dot4(w, pv[2], pv[3], pv[6], pv[7]);
        // evaluate_view's out-of-range guard; never fires for tight tables,
        // exactly like the scalar kernel's skipped branch.
        const Mask invdw = T::cmp_lt(r2, v_smax);
        ve = T::blend(zero, ve, invdw);
        vf = T::blend(zero, vf, invdw);
        VD f_over_r = T::mul(vf, vscalev);
        acc_ev = T::add_i64(
            acc_ev, T::and_mask_i64(
                        quantize_round<T>(T::mul(ve, vscalev), escalev),
                        active));

        if constexpr (kHasElec) {
          const VD qq = T::mul(T::mul(qi, qj[cc]), cpsv);
          const Mask qnz = T::cmp_ne(qq, zero);
          const Basis we = basis(r2, e_smin, e_invds, e_last, e_ds);
          const Idx ge = T::idx_mul(we.bin, eightv);
          VD pe[8];
          T::load_packed8(ebase, ge, pe);
          VD ee = dot4(we, pe[0], pe[1], pe[4], pe[5]);
          VD ef = dot4(we, pe[2], pe[3], pe[6], pe[7]);
          const Mask inel = T::cmp_lt(r2, e_smax);
          ee = T::blend(zero, ee, inel);
          ef = T::blend(zero, ef, inel);
          // Scalar adds the elec term only when qq != 0; the masked add
          // keeps the old sum for qq == 0 lanes (adding a zero could flip
          // -0.0).
          f_over_r = T::add_masked(f_over_r, T::mul(qq, ef), qnz);
          acc_ee = T::add_i64(
              acc_ee,
              T::and_mask_i64(quantize_round<T>(T::mul(qq, ee), escalev),
                              T::mask_and(qnz, active)));
        }

        const VD fx = T::mul(f_over_r, dx);
        const VD fy = T::mul(f_over_r, dy);
        const VD fz = T::mul(f_over_r, dz);
        const VI qx = T::and_mask_i64(quantize_round<T>(fx, fscalev), active);
        const VI qy = T::and_mask_i64(quantize_round<T>(fy, fscalev), active);
        const VI qz = T::and_mask_i64(quantize_round<T>(fz, fscalev), active);
        fjx[cc] = T::sub_i64(fjx[cc], qx);
        fjy[cc] = T::sub_i64(fjy[cc], qy);
        fjz[cc] = T::sub_i64(fjz[cc], qz);
        // i-side: horizontal per-row sums (integer, order-free).
        const auto spill_fi = [&](VI q, unsigned comp) {
          int64_t rs[T::kRows];
          T::row_sums_i64(q, rs);
          for (unsigned r = 0; r < T::kRows; ++r) {
            fi[a + r][comp] += static_cast<uint64_t>(rs[r]);
          }
        };
        spill_fi(qx, 0);
        spill_fi(qy, 1);
        spill_fi(qz, 2);

        // Virial, canonical grouping: this block's lanes land in bucket
        // (row parity)*kCC + cc, lane l == its column within the bucket.
        const unsigned bucket =
            (T::kRows == 2) ? 0u : ((a & 1u) * kCC + cc);
        const auto vadd = [&](unsigned k, VD c) {
          vacc[k][bucket] = T::add_masked(vacc[k][bucket], c, active);
        };
        vadd(0, T::mul(dx, fx)); vadd(1, T::mul(dx, fy));
        vadd(2, T::mul(dx, fz)); vadd(3, T::mul(dy, fx));
        vadd(4, T::mul(dy, fy)); vadd(5, T::mul(dy, fz));
        vadd(6, T::mul(dz, fx)); vadd(7, T::mul(dz, fy));
        vadd(8, T::mul(dz, fz));
      }
    }

    // j-side scatter, one store per touched slot (as in the scalar loop).
    uint64_t fjq[kClusterJWidth][3] = {};
    for (unsigned cc = 0; cc < kCC; ++cc) {
      const auto spill_fj = [&](VI q, unsigned comp) {
        T::store_i64(lanes_i64, q);
        for (unsigned l = 0; l < T::kLanes; ++l) {
          fjq[cc * T::kCols + l % T::kCols][comp] +=
              static_cast<uint64_t>(lanes_i64[l]);
        }
      };
      spill_fj(fjx[cc], 0);
      spill_fj(fjy[cc], 1);
      spill_fj(fjz[cc], 2);
    }
    for (unsigned k = 0; k < kClusterJWidth; ++k) {
      if ((fjq[k][0] | fjq[k][1] | fjq[k][2]) != 0) {
        forces.add_quanta(list.atoms[bj + k],
                          {static_cast<int64_t>(fjq[k][0]),
                           static_cast<int64_t>(fjq[k][1]),
                           static_cast<int64_t>(fjq[k][2])});
      }
    }
  }
  if (!entries.empty()) flush_fi(run_ci);

  // Merge in ascending s = bucket * kLanes + lane: the scalar kernel's
  // exact reduction tree.
  Mat3 v;
  for (unsigned k = 0; k < 9; ++k) {
    double t = 0.0;
    bool first = true;
    for (unsigned b = 0; b < kBuckets; ++b) {
      T::store(lanes_pd, vacc[k][b]);
      for (unsigned l = 0; l < T::kLanes; ++l) {
        if (first) {
          t = lanes_pd[l];
          first = false;
        } else {
          t += lanes_pd[l];
        }
      }
    }
    v.m[k] = t;
  }
  virial += v;

  uint64_t e_vdw_q = 0;
  uint64_t e_elec_q = 0;
  T::store_i64(lanes_i64, acc_ev);
  for (unsigned l = 0; l < T::kLanes; ++l) {
    e_vdw_q += static_cast<uint64_t>(lanes_i64[l]);
  }
  T::store_i64(lanes_i64, acc_ee);
  for (unsigned l = 0; l < T::kLanes; ++l) {
    e_elec_q += static_cast<uint64_t>(lanes_i64[l]);
  }
  energy.vdw.add_raw(static_cast<int64_t>(e_vdw_q));
  energy.coulomb_real.add_raw(static_cast<int64_t>(e_elec_q));
}

/// Shared per-TU entry: resolves has_elec at runtime into the two template
/// instantiations (the only specialization axis the SIMD kernels need —
/// unit scales and tight tables are bitwise no-op identities here).
template <typename T>
void run_cluster_entries_simd(const ClusterPairList& list,
                              std::span<const ClusterPairEntry> entries,
                              const PairTableSet& tables, const Box& box,
                              FixedForceArray& forces,
                              EnergyBreakdown& energy, Mat3& virial,
                              double vdw_scale, double charge_product_scale) {
  const SimdTableArena& arena = tables.simd_arena();
  const double cutoff2 = tables.model().cutoff * tables.model().cutoff;
  const bool has_elec = tables.elec_table().has_value();
  const RadialTableView elec =
      has_elec ? tables.elec_table()->view() : RadialTableView{};
  if (has_elec) {
    cluster_entries_simd<T, true>(list, entries, arena, tables.type_count(),
                                  elec, cutoff2, box, forces, energy, virial,
                                  vdw_scale, charge_product_scale);
  } else {
    cluster_entries_simd<T, false>(list, entries, arena, tables.type_count(),
                                   elec, cutoff2, box, forces, energy, virial,
                                   vdw_scale, charge_product_scale);
  }
}

}  // namespace antmd::ff::simd_detail
