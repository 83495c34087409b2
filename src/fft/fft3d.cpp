#include "fft/fft3d.hpp"

#include <cmath>

#include "util/error.hpp"

namespace antmd {

Grid3D::Grid3D(size_t nx, size_t ny, size_t nz)
    : nx_(nx), ny_(ny), nz_(nz), data_(nx * ny * nz) {
  ANTMD_REQUIRE(is_pow2(nx) && is_pow2(ny) && is_pow2(nz),
                "grid dimensions must be powers of two");
}

void Grid3D::fill(Complex value) {
  std::fill(data_.begin(), data_.end(), value);
}

namespace {

void transform_line(std::vector<Complex>& line, FftDirection dir) {
  if (dir == FftDirection::kForward) {
    fft_forward(line);
  } else {
    fft_inverse(line);
  }
}

void transform(Grid3D& grid, FftDirection dir) {
  for (size_t z = 0; z < grid.nz(); ++z) fft3d_plane(grid, z, dir);
  for (size_t y = 0; y < grid.ny(); ++y) {
    fft3d_columns(grid, y, 0, grid.nx(), dir);
  }
}

}  // namespace

void fft3d_plane(Grid3D& g, size_t z, FftDirection dir) {
  std::vector<Complex> line(g.nx());
  for (size_t y = 0; y < g.ny(); ++y) {
    for (size_t x = 0; x < g.nx(); ++x) line[x] = g.at(x, y, z);
    transform_line(line, dir);
    for (size_t x = 0; x < g.nx(); ++x) g.at(x, y, z) = line[x];
  }
  line.resize(g.ny());
  for (size_t x = 0; x < g.nx(); ++x) {
    for (size_t y = 0; y < g.ny(); ++y) line[y] = g.at(x, y, z);
    transform_line(line, dir);
    for (size_t y = 0; y < g.ny(); ++y) g.at(x, y, z) = line[y];
  }
}

void fft3d_columns(Grid3D& g, size_t y, size_t x_begin, size_t x_end,
                   FftDirection dir) {
  std::vector<Complex> line(g.nz());
  for (size_t x = x_begin; x < x_end; ++x) {
    for (size_t z = 0; z < g.nz(); ++z) line[z] = g.at(x, y, z);
    transform_line(line, dir);
    for (size_t z = 0; z < g.nz(); ++z) g.at(x, y, z) = line[z];
  }
}

void fft3d_forward(Grid3D& grid) { transform(grid, FftDirection::kForward); }

void fft3d_inverse(Grid3D& grid) { transform(grid, FftDirection::kInverse); }

FftCommEstimate estimate_fft_cost(size_t nx, size_t ny, size_t nz,
                                  size_t nodes) {
  ANTMD_REQUIRE(nodes > 0, "nodes must be positive");
  const double n = static_cast<double>(nx * ny * nz);
  FftCommEstimate est;
  // 5 N log2 N real operations is the standard complex-FFT work estimate.
  est.flops = 5.0 * n * std::log2(std::max(2.0, n));
  if (nodes > 1) {
    // Two transposes; each moves the whole grid once (16 B per complex).
    est.alltoall_bytes = 2.0 * n * 16.0;
    est.messages_per_node = 2 * (nodes - 1);
  }
  return est;
}

}  // namespace antmd
