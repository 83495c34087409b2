#include "math/spline.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"

namespace antmd {

CubicSpline::CubicSpline(std::vector<double> x, std::vector<double> y)
    : x_(std::move(x)), y_(std::move(y)) {
  ANTMD_REQUIRE(x_.size() == y_.size(), "x/y size mismatch");
  ANTMD_REQUIRE(x_.size() >= 3, "spline needs at least 3 points");
  ANTMD_REQUIRE(std::is_sorted(x_.begin(), x_.end()) &&
                    std::adjacent_find(x_.begin(), x_.end()) == x_.end(),
                "x must be strictly increasing");

  // Tridiagonal solve for natural spline second derivatives.
  const size_t n = x_.size();
  y2_.assign(n, 0.0);
  std::vector<double> u(n, 0.0);
  for (size_t i = 1; i + 1 < n; ++i) {
    double sig = (x_[i] - x_[i - 1]) / (x_[i + 1] - x_[i - 1]);
    double p = sig * y2_[i - 1] + 2.0;
    y2_[i] = (sig - 1.0) / p;
    double d = (y_[i + 1] - y_[i]) / (x_[i + 1] - x_[i]) -
               (y_[i] - y_[i - 1]) / (x_[i] - x_[i - 1]);
    u[i] = (6.0 * d / (x_[i + 1] - x_[i - 1]) - sig * u[i - 1]) / p;
  }
  for (size_t k = n - 1; k-- > 0;) {
    y2_[k] = y2_[k] * y2_[k + 1] + u[k];
  }
}

size_t CubicSpline::interval(double x) const {
  auto it = std::upper_bound(x_.begin(), x_.end(), x);
  if (it == x_.begin()) return 0;
  size_t i = static_cast<size_t>(it - x_.begin()) - 1;
  return std::min(i, x_.size() - 2);
}

double CubicSpline::value(double x) const {
  if (x <= x_.front()) return y_.front();
  if (x >= x_.back()) return y_.back();
  size_t i = interval(x);
  double h = x_[i + 1] - x_[i];
  double a = (x_[i + 1] - x) / h;
  double b = (x - x_[i]) / h;
  return a * y_[i] + b * y_[i + 1] +
         ((a * a * a - a) * y2_[i] + (b * b * b - b) * y2_[i + 1]) * h * h /
             6.0;
}

double CubicSpline::derivative(double x) const {
  if (x <= x_.front() || x >= x_.back()) return 0.0;
  size_t i = interval(x);
  double h = x_[i + 1] - x_[i];
  double a = (x_[i + 1] - x) / h;
  double b = (x - x_[i]) / h;
  return (y_[i + 1] - y_[i]) / h -
         (3.0 * a * a - 1.0) / 6.0 * h * y2_[i] +
         (3.0 * b * b - 1.0) / 6.0 * h * y2_[i + 1];
}

RadialTable RadialTable::from_potential(
    const std::function<double(double)>& energy,
    const std::function<double(double)>& denergy_dr, double r_min,
    double r_cut, size_t bins, bool shift_to_zero) {
  ANTMD_REQUIRE(r_cut > r_min && r_min > 0.0, "need 0 < r_min < r_cut");
  ANTMD_REQUIRE(bins >= 8, "table needs at least 8 bins");

  RadialTable t;
  t.s_min_ = r_min * r_min;
  t.s_max_ = r_cut * r_cut;
  t.r_cut_ = r_cut;
  const size_t knots = bins + 1;
  const double ds = (t.s_max_ - t.s_min_) / static_cast<double>(bins);
  t.inv_ds_ = 1.0 / ds;
  // The basis uses the double-rounded reciprocal (matching the historical
  // `1.0 / inv_ds_` in evaluate()), not `ds`, so cached results are
  // bit-identical to recomputing it per call.
  t.ds_ = 1.0 / t.inv_ds_;

  const double shift = shift_to_zero ? energy(r_cut) : 0.0;

  // Per knot: U, dU/ds, G and dG/ds.
  std::vector<std::array<double, 4>> knot(knots);
  for (size_t k = 0; k < knots; ++k) {
    double s = t.s_min_ + ds * static_cast<double>(k);
    double r = std::sqrt(s);
    double du = denergy_dr(r);
    knot[k][0] = energy(r) - shift;
    // dU/ds = dU/dr * dr/ds = dU/dr / (2 r)
    knot[k][1] = du / (2.0 * r);
    // G(s) = -(1/r) dU/dr
    knot[k][2] = -du / r;
  }
  // dG/ds by centered finite differences on the knots (ends one-sided).
  for (size_t k = 0; k < knots; ++k) {
    if (k == 0) {
      knot[k][3] = (knot[1][2] - knot[0][2]) * t.inv_ds_;
    } else if (k == knots - 1) {
      knot[k][3] = (knot[k][2] - knot[k - 1][2]) * t.inv_ds_;
    } else {
      knot[k][3] = (knot[k + 1][2] - knot[k - 1][2]) * 0.5 * t.inv_ds_;
    }
  }
  // 8 doubles (one cache line) per bin; pad the front so the first bin's
  // slot lands on a 64-byte boundary wherever the heap block starts.
  t.bins_ = bins;
  t.packed_.resize(bins * 8 + 8);
  auto base = reinterpret_cast<uintptr_t>(t.packed_.data());
  t.packed_skip_ = (64 - base % 64) % 64 / sizeof(double);
  double* packed = t.packed_.data() + t.packed_skip_;
  for (size_t k = 0; k < bins; ++k) {
    std::copy(knot[k].begin(), knot[k].end(), packed + 8 * k);
    std::copy(knot[k + 1].begin(), knot[k + 1].end(), packed + 8 * k + 4);
  }
  return t;
}

RadialEval RadialTable::evaluate(double r2) const {
  return evaluate_view(view(), r2);
}

}  // namespace antmd
