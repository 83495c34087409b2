// Fixed-point numerics modeled on Anton's deterministic arithmetic.
//
// Anton stores positions in fixed point and accumulates forces as integers,
// which makes the result of a reduction independent of summation order and
// therefore bit-identical regardless of how atoms and pairs are distributed
// across nodes.  antmd reproduces that: pair forces are quantized once per
// pair, applied with exactly opposite sign to the two atoms, and accumulated
// in 64-bit integers.  Tests assert bitwise equality of trajectories across
// node counts (experiment T5).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "math/vec.hpp"

namespace antmd {

namespace fixed {

/// Position quantum: 2^-21 Å (covers ±1024 Å in an int32 with ~0.5 µÅ
/// resolution — matches the dynamic range a 32-bit machine word affords).
inline constexpr double kPosScale = 2097152.0;  // 2^21

/// Force quantum: 2^-24 kcal/mol/Å.
inline constexpr double kForceScale = 16777216.0;  // 2^24

/// Energy quantum: 2^-32 kcal/mol (per-pair terms are O(1)).
inline constexpr double kEnergyScale = 4294967296.0;  // 2^32

inline int64_t quantize(double v, double scale) {
  return std::llround(v * scale);
}

/// Bit-for-bit equal to quantize(), computed with the hardware round
/// instruction instead of the libm llround call (which most compilers
/// cannot inline because no instruction rounds ties away from zero).
/// nearbyint rounds ties to even, so the only inputs where the two differ
/// are exact .5 ties; t - nearbyint(t) is computed exactly whenever
/// |t - nearbyint(t)| <= 0.5 (Sterbenz), so the tie test below is exact
/// and the correction restores llround's away-from-zero behaviour.
/// Hot kernels use this; everything else keeps the libm spelling.
inline int64_t quantize_round(double v, double scale) {
  const double t = v * scale;
  const double r = std::nearbyint(t);
  auto q = static_cast<int64_t>(r);
  const double d = t - r;
  if (d == 0.5 && t > 0.0) {
    ++q;  // e.g. 2.5: nearbyint gives 2, llround gives 3
  } else if (d == -0.5 && t < 0.0) {
    --q;  // e.g. -2.5: nearbyint gives -2, llround gives -3
  }
  return q;
}
inline double dequantize(int64_t q, double scale) {
  return static_cast<double>(q) / scale;
}

}  // namespace fixed

/// 32-bit fixed-point position triple (what travels over the modeled torus).
struct FixedPos {
  int32_t x = 0;
  int32_t y = 0;
  int32_t z = 0;

  static FixedPos from_vec(const Vec3& v) {
    return {static_cast<int32_t>(fixed::quantize(v.x, fixed::kPosScale)),
            static_cast<int32_t>(fixed::quantize(v.y, fixed::kPosScale)),
            static_cast<int32_t>(fixed::quantize(v.z, fixed::kPosScale))};
  }
  [[nodiscard]] Vec3 to_vec() const {
    return {fixed::dequantize(x, fixed::kPosScale),
            fixed::dequantize(y, fixed::kPosScale),
            fixed::dequantize(z, fixed::kPosScale)};
  }
  friend bool operator==(const FixedPos&, const FixedPos&) = default;
};

/// Quantizes a position vector through the 32-bit wire format and back,
/// i.e. what every node sees after a position broadcast.
inline Vec3 snap_position(const Vec3& v) {
  return FixedPos::from_vec(v).to_vec();
}

/// Order-independent force accumulator: one int64 triple per atom.
class FixedForceArray {
 public:
  FixedForceArray() = default;
  explicit FixedForceArray(size_t n) : data_(n, {0, 0, 0}) {}

  void resize(size_t n) { data_.assign(n, {0, 0, 0}); }
  void clear() { std::fill(data_.begin(), data_.end(), Triple{0, 0, 0}); }
  [[nodiscard]] size_t size() const { return data_.size(); }

  /// Adds force f to atom i (quantized).
  void add(size_t i, const Vec3& f) {
    auto& t = data_[i];
    t[0] += fixed::quantize(f.x, fixed::kForceScale);
    t[1] += fixed::quantize(f.y, fixed::kForceScale);
    t[2] += fixed::quantize(f.z, fixed::kForceScale);
  }

  /// Adds +f to atom i and the bit-exact opposite to atom j.
  void add_pair(size_t i, size_t j, const Vec3& f) {
    int64_t qx = fixed::quantize(f.x, fixed::kForceScale);
    int64_t qy = fixed::quantize(f.y, fixed::kForceScale);
    int64_t qz = fixed::quantize(f.z, fixed::kForceScale);
    auto& ti = data_[i];
    ti[0] += qx; ti[1] += qy; ti[2] += qz;
    auto& tj = data_[j];
    tj[0] -= qx; tj[1] -= qy; tj[2] -= qz;
  }

  /// Element-wise merge of another accumulator (a modeled reduction).
  void merge(const FixedForceArray& other);

  /// Adds this accumulator into `dst` and zeroes it in the same pass — the
  /// persistent per-lane partial pattern: lane arrays stay allocated and
  /// zeroed between evaluations instead of being re-zeroed every call.
  void drain_into(FixedForceArray& dst);

  /// Raw integer quanta for atom i (for exact redistribution algorithms).
  [[nodiscard]] std::array<int64_t, 3> quanta(size_t i) const {
    return data_[i];
  }
  void add_quanta(size_t i, const std::array<int64_t, 3>& q) {
    auto& t = data_[i];
    t[0] += q[0]; t[1] += q[1]; t[2] += q[2];
  }
  void set_quanta(size_t i, const std::array<int64_t, 3>& q) { data_[i] = q; }

  [[nodiscard]] Vec3 force(size_t i) const {
    const auto& t = data_[i];
    return {fixed::dequantize(t[0], fixed::kForceScale),
            fixed::dequantize(t[1], fixed::kForceScale),
            fixed::dequantize(t[2], fixed::kForceScale)};
  }

  [[nodiscard]] std::vector<Vec3> to_vectors() const;

  friend bool operator==(const FixedForceArray&,
                         const FixedForceArray&) = default;

 private:
  using Triple = std::array<int64_t, 3>;
  std::vector<Triple> data_;
};

/// Order-independent scalar accumulator (energies, virials).
class FixedScalar {
 public:
  FixedScalar() = default;

  void add(double v) { q_ += fixed::quantize(v, fixed::kEnergyScale); }
  /// Adds pre-quantized energy quanta (kernels that batch per-pair quanta
  /// in a local int64 and flush once — same integer sum as per-pair add()).
  void add_raw(int64_t q) { q_ += q; }
  void merge(const FixedScalar& o) { q_ += o.q_; }
  [[nodiscard]] double value() const {
    return fixed::dequantize(q_, fixed::kEnergyScale);
  }
  /// Raw quanta, for bit-exact checkpoint round trips.
  [[nodiscard]] int64_t raw() const { return q_; }
  void set_raw(int64_t q) { q_ = q; }
  friend bool operator==(const FixedScalar&, const FixedScalar&) = default;

 private:
  int64_t q_ = 0;
};

}  // namespace antmd
