// Functional simulation of a slab-decomposed distributed 3D FFT.
//
// Anton computes the GSE k-space transform across the whole machine; the
// timing model charges its two all-to-all transposes analytically
// (estimate_fft_cost).  This class is the *functional* counterpart: the
// grid is partitioned into z-slabs across `ranks`, x/y lines are
// transformed slab-locally, and the z transform happens after an explicit
// transpose whose per-rank message sizes are recorded.  Both phases loop
// over the serial transform's own plane and column kernels, so the result
// is bitwise identical to fft3d_forward/inverse (verified in fft_test),
// which is how the real machine keeps k-space deterministic regardless of
// how the FFT is spread over nodes.
#pragma once

#include <cstddef>
#include <vector>

#include "fft/fft3d.hpp"

namespace antmd {

/// Communication record of one distributed transform.
struct FftCommLog {
  double bytes = 0.0;        ///< payload crossing rank boundaries
  size_t messages = 0;       ///< point-to-point messages
  size_t transposes = 0;     ///< all-to-all phases performed
};

class DistributedFft3d {
 public:
  /// ranks must divide nz and nx (slab decompositions in both phases).
  DistributedFft3d(size_t nx, size_t ny, size_t nz, size_t ranks);

  /// In-place forward/inverse transform with explicit transposes.
  FftCommLog forward(Grid3D& grid) const;
  FftCommLog inverse(Grid3D& grid) const;

  [[nodiscard]] size_t ranks() const { return ranks_; }

 private:
  FftCommLog transform(Grid3D& grid, FftDirection dir) const;

  size_t nx_, ny_, nz_, ranks_;
};

}  // namespace antmd
