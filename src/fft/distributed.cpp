#include "fft/distributed.hpp"

#include "util/error.hpp"

namespace antmd {

DistributedFft3d::DistributedFft3d(size_t nx, size_t ny, size_t nz,
                                   size_t ranks)
    : nx_(nx), ny_(ny), nz_(nz), ranks_(ranks) {
  ANTMD_REQUIRE(is_pow2(nx) && is_pow2(ny) && is_pow2(nz),
                "grid dimensions must be powers of two");
  ANTMD_REQUIRE(ranks >= 1, "need at least one rank");
  ANTMD_REQUIRE(nz % ranks == 0 && nx % ranks == 0,
                "ranks must divide nz (phase 1 slabs) and nx (phase 2)");
}

FftCommLog DistributedFft3d::transform(Grid3D& grid, FftDirection dir) const {
  ANTMD_REQUIRE(grid.nx() == nx_ && grid.ny() == ny_ && grid.nz() == nz_,
                "grid shape mismatch");
  FftCommLog log;
  const size_t z_per_rank = nz_ / ranks_;
  const size_t x_per_rank = nx_ / ranks_;

  // --- phase 1: each rank transforms x and y lines inside its z-slab ------
  for (size_t rank = 0; rank < ranks_; ++rank) {
    const size_t z0 = rank * z_per_rank;
    for (size_t z = z0; z < z0 + z_per_rank; ++z) fft3d_plane(grid, z, dir);
  }

  // --- transpose: z-slabs -> x-slabs (explicit message accounting) --------
  // Each (src, dst) rank pair exchanges the block
  // x ∈ dst's x range, z ∈ src's z range, all y.
  auto account_transpose = [&]() {
    for (size_t src = 0; src < ranks_; ++src) {
      for (size_t dst = 0; dst < ranks_; ++dst) {
        if (src == dst) continue;
        double block = static_cast<double>(x_per_rank) * ny_ * z_per_rank *
                       sizeof(Complex);
        log.bytes += block;
        log.messages += 1;
      }
    }
    log.transposes += 1;
  };
  account_transpose();

  // --- phase 2: each rank transforms z lines inside its x-slab -------------
  for (size_t rank = 0; rank < ranks_; ++rank) {
    const size_t x0 = rank * x_per_rank;
    for (size_t y = 0; y < ny_; ++y) {
      fft3d_columns(grid, y, x0, x0 + x_per_rank, dir);
    }
  }

  // --- transpose back so callers see the canonical z-slab layout ----------
  account_transpose();
  return log;
}

FftCommLog DistributedFft3d::forward(Grid3D& grid) const {
  return transform(grid, FftDirection::kForward);
}

FftCommLog DistributedFft3d::inverse(Grid3D& grid) const {
  return transform(grid, FftDirection::kInverse);
}

}  // namespace antmd
