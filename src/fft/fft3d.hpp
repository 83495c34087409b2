// 3D FFT over a real scalar field on a regular grid, with an accounting of
// the communication pattern a slab-decomposed distributed transform incurs.
//
// The functional result is computed locally (this host is one core); the
// CommEstimate is consumed by the machine timing model, which is how the
// bench for experiment F5 attributes k-space time to compute vs transpose
// traffic.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "fft/fft.hpp"
#include "util/page_allocator.hpp"

namespace antmd {

/// Dense 3D complex grid with x fastest (index = x + nx*(y + ny*z)).
/// Storage is mapped from the OS (util::PageAllocator): a grid is a large
/// buffer that typically lives for one k-space evaluation.
class Grid3D {
 public:
  using Storage = std::vector<Complex, util::PageAllocator<Complex>>;

  Grid3D() = default;
  Grid3D(size_t nx, size_t ny, size_t nz);

  [[nodiscard]] size_t nx() const { return nx_; }
  [[nodiscard]] size_t ny() const { return ny_; }
  [[nodiscard]] size_t nz() const { return nz_; }
  [[nodiscard]] size_t size() const { return data_.size(); }

  [[nodiscard]] Complex& at(size_t x, size_t y, size_t z) {
    return data_[x + nx_ * (y + ny_ * z)];
  }
  [[nodiscard]] const Complex& at(size_t x, size_t y, size_t z) const {
    return data_[x + nx_ * (y + ny_ * z)];
  }

  [[nodiscard]] Storage& raw() { return data_; }
  [[nodiscard]] const Storage& raw() const { return data_; }

  void fill(Complex value);

 private:
  size_t nx_ = 0, ny_ = 0, nz_ = 0;
  Storage data_;
};

/// In-place 3D forward transform (dimension-by-dimension 1D FFTs).
void fft3d_forward(Grid3D& grid);
/// In-place 3D inverse transform (normalized).
void fft3d_inverse(Grid3D& grid);

// The two halves of a 3D transform, as the kernels that the serial and the
// task-graph transforms both loop over.  Every 1D
// line is transformed independently in place, so running the planes (or
// the columns) in any order or in parallel gives the same bits; only
// "all planes before any column" matters.
enum class FftDirection { kForward, kInverse };

/// Transforms the x lines and then the y lines of z-plane `z`.
void fft3d_plane(Grid3D& grid, size_t z, FftDirection dir);
/// Transforms the z lines through row `y`.
void fft3d_columns(Grid3D& grid, size_t y, FftDirection dir);

/// Communication/compute volume of one distributed 3D FFT (forward or
/// inverse) on `nodes` ranks using two all-to-all transposes, in the style
/// of Anton's k-space pipeline.
struct FftCommEstimate {
  double flops = 0.0;            ///< total 5 N log2 N butterflies-equivalent
  double alltoall_bytes = 0.0;   ///< total bytes crossing the network
  size_t messages_per_node = 0;  ///< messages each node sends per transpose
};

[[nodiscard]] FftCommEstimate estimate_fft_cost(size_t nx, size_t ny,
                                                size_t nz, size_t nodes);

}  // namespace antmd
