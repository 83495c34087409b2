// Tabulated function machinery.
//
// Anton's pairwise point interaction modules (PPIMs) evaluate *all* radial
// nonbonded functional forms — Lennard-Jones, real-space Ewald, and any
// user-supplied potential — through the same hardware table-interpolation
// path, indexed by squared distance to avoid a sqrt in the pipeline.  The
// RadialTable below models that path in software and is shared by the
// standard and "generality extension" potentials alike.
#pragma once

#include <functional>
#include <vector>

namespace antmd {

/// Natural cubic spline over a strictly increasing x grid.
class CubicSpline {
 public:
  CubicSpline(std::vector<double> x, std::vector<double> y);

  /// Interpolated value; clamps to end values outside the grid.
  [[nodiscard]] double value(double x) const;
  /// Interpolated derivative; zero outside the grid.
  [[nodiscard]] double derivative(double x) const;

  [[nodiscard]] double x_min() const { return x_.front(); }
  [[nodiscard]] double x_max() const { return x_.back(); }

 private:
  [[nodiscard]] size_t interval(double x) const;

  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> y2_;  // second derivatives at knots
};

/// Result of a radial-table lookup.
struct RadialEval {
  double energy = 0.0;        ///< U(r) in kcal/mol
  double force_over_r = 0.0;  ///< -(1/r) dU/dr; force vector = this * r_ij
};

/// Flat, by-value snapshot of a RadialTable for hot loops: the evaluation
/// constants live in the struct (no pointer chase through the table object)
/// and the knot data is the table's per-bin packed array, so one lookup
/// touches one 64-byte cache line.
struct RadialTableView {
  double s_min = 0.0;
  double s_max = 0.0;
  double inv_ds = 0.0;
  double ds = 0.0;
  size_t last = 0;               ///< highest valid bin index
  const double* packed = nullptr;  ///< 8 doubles per bin (see RadialTable)
};

/// Radial interaction table sampled uniformly in s = r², evaluated with
/// cubic Hermite interpolation (value and d/ds at each knot), mirroring the
/// hardware evaluator.  Below s_min the table clamps to the first knot (a
/// pipeline would saturate similarly); above s_max it returns exactly zero.
class RadialTable {
 public:
  /// Builds a table from U(r) and dU/dr over r in [r_min, r_cut].
  /// If shift_to_zero is true, U is shifted so U(r_cut) == 0 (energy
  /// conservation with truncated potentials).
  static RadialTable from_potential(
      const std::function<double(double)>& energy,
      const std::function<double(double)>& denergy_dr, double r_min,
      double r_cut, size_t bins, bool shift_to_zero = true);

  /// One lookup through view(): identical bits to evaluate_view().
  [[nodiscard]] RadialEval evaluate(double r2) const;

  /// Snapshot for evaluate_view(); valid while this table is alive and
  /// unmoved (hot kernels build their view grid per call).
  [[nodiscard]] RadialTableView view() const {
    return {s_min_, s_max_, inv_ds_, ds_, bins_ - 1,
            packed_.data() + packed_skip_};
  }

  [[nodiscard]] size_t bins() const { return bins_; }
  [[nodiscard]] double r_cut() const { return r_cut_; }

  /// Visits the byte range every lookup reads — the packed per-bin knot
  /// data — as fn(name, data, bytes) with a mutable pointer.  This is the
  /// SDC scrubber's registration hook: the table is immutable after
  /// from_potential(), so a golden CRC of the region taken at build time
  /// stays valid for the table's whole life, and a mismatch later is proof
  /// of memory corruption (repairable by memcpy from the mirror).
  template <typename Fn>
  void visit_scrub_regions(Fn&& fn) {
    fn("spline.packed", static_cast<void*>(packed_.data()),
       packed_.size() * sizeof(double));
  }

 private:
  RadialTable() = default;

  double s_min_ = 0.0;
  double s_max_ = 0.0;
  double inv_ds_ = 0.0;
  double ds_ = 0.0;  ///< 1.0 / inv_ds_, cached (spacing used by the basis)
  double r_cut_ = 0.0;
  size_t bins_ = 0;
  // The knot data of U(s) and G(s) = -(1/r) dU/dr as functions of s = r²,
  // 8 doubles per bin in the order (U, dU/ds, G, dG/ds) for the bin's lower
  // knot followed by the same four for its upper knot.  Each knot is stored
  // twice (once per adjacent bin) so one lookup reads exactly one 64-byte
  // cache line; packed_skip_ is the element offset that made the first
  // bin's slot 64-byte-aligned when the table was built (copies may lose
  // alignment, which costs nothing but speed).
  std::vector<double> packed_;
  size_t packed_skip_ = 0;
};

/// The table lookup, reading the per-bin packed layout through a
/// RadialTableView, without the above-cutoff test: the caller must
/// guarantee r2 < s_max (hot kernels have already applied the cutoff,
/// which equals s_max).  Below s_min the lookup clamps to the first knot.
[[nodiscard]] inline RadialEval evaluate_view_incutoff(
    const RadialTableView& v, double r2) {
  double s = r2 > v.s_min ? r2 : v.s_min;
  double u = (s - v.s_min) * v.inv_ds;
  auto bin = static_cast<size_t>(u);
  if (bin > v.last) bin = v.last;
  double tloc = u - static_cast<double>(bin);

  double t2 = tloc * tloc;
  double t3 = t2 * tloc;
  double h00 = 2 * t3 - 3 * t2 + 1;
  double h10 = t3 - 2 * t2 + tloc;
  double h01 = -2 * t3 + 3 * t2;
  double h11 = t3 - t2;

  const double* p = v.packed + 8 * bin;
  RadialEval out;
  out.energy = h00 * p[0] + h10 * v.ds * p[1] +
               h01 * p[4] + h11 * v.ds * p[5];
  out.force_over_r = h00 * p[2] + h10 * v.ds * p[3] +
                     h01 * p[6] + h11 * v.ds * p[7];
  return out;
}

/// evaluate_view_incutoff() behind the same out-of-range guard as
/// RadialTable::evaluate(): zero at/above s_max.
[[nodiscard]] inline RadialEval evaluate_view(const RadialTableView& v,
                                              double r2) {
  if (r2 >= v.s_max) return {};
  return evaluate_view_incutoff(v, r2);
}

}  // namespace antmd
