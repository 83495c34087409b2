// Tests for the from-scratch FFT: round trips, known transforms, Parseval,
// 3D transforms, and the distributed-cost estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>

#include "fft/fft.hpp"
#include "fft/fft3d.hpp"
#include "math/rng.hpp"
#include "util/error.hpp"
#include "util/task_graph.hpp"

namespace antmd {
namespace {

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(24));
}

TEST(Fft, RejectsNonPow2) {
  std::vector<Complex> data(24);
  EXPECT_THROW(fft_forward(data), Error);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<Complex> data(16, {0, 0});
  data[0] = {1, 0};
  fft_forward(data);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleModeIsDetected) {
  const size_t n = 64;
  std::vector<Complex> data(n);
  const size_t mode = 5;
  for (size_t i = 0; i < n; ++i) {
    double phase = 2.0 * M_PI * static_cast<double>(mode * i) / n;
    data[i] = {std::cos(phase), std::sin(phase)};
  }
  fft_forward(data);
  for (size_t k = 0; k < n; ++k) {
    double expected = (k == mode) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(data[k]), expected, 1e-9) << "k=" << k;
  }
}

TEST(Fft, RoundTripRestoresInput) {
  SequentialRng rng(4);
  for (size_t n : {2u, 8u, 128u, 1024u}) {
    std::vector<Complex> data(n);
    for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    auto orig = data;
    fft_forward(data);
    fft_inverse(data);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
      EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
    }
  }
}

TEST(Fft, ParsevalHolds) {
  SequentialRng rng(9);
  const size_t n = 256;
  std::vector<Complex> data(n);
  double time_sum = 0;
  for (auto& v : data) {
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    time_sum += std::norm(v);
  }
  fft_forward(data);
  double freq_sum = 0;
  for (const auto& v : data) freq_sum += std::norm(v);
  EXPECT_NEAR(freq_sum, time_sum * n, 1e-8 * time_sum * n);
}

TEST(Fft, LinearityHolds) {
  SequentialRng rng(13);
  const size_t n = 64;
  std::vector<Complex> a(n), b(n), sum(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = {rng.uniform(-1, 1), 0};
    b[i] = {rng.uniform(-1, 1), 0};
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft_forward(a);
  fft_forward(b);
  fft_forward(sum);
  for (size_t i = 0; i < n; ++i) {
    Complex expect = a[i] + 2.0 * b[i];
    EXPECT_NEAR(std::abs(sum[i] - expect), 0.0, 1e-10);
  }
}

TEST(Fft3d, RoundTrip) {
  Grid3D g(8, 4, 16);
  SequentialRng rng(21);
  for (auto& v : g.raw()) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto orig = g.raw();
  fft3d_forward(g);
  fft3d_inverse(g);
  for (size_t i = 0; i < orig.size(); ++i) {
    EXPECT_NEAR(g.raw()[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(g.raw()[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft3d, PlaneWaveSingleCoefficient) {
  const size_t nx = 8, ny = 8, nz = 8;
  Grid3D g(nx, ny, nz);
  const size_t mx = 2, my = 3, mz = 1;
  for (size_t z = 0; z < nz; ++z) {
    for (size_t y = 0; y < ny; ++y) {
      for (size_t x = 0; x < nx; ++x) {
        double phase = 2.0 * M_PI *
                       (static_cast<double>(mx * x) / nx +
                        static_cast<double>(my * y) / ny +
                        static_cast<double>(mz * z) / nz);
        g.at(x, y, z) = {std::cos(phase), std::sin(phase)};
      }
    }
  }
  fft3d_forward(g);
  for (size_t z = 0; z < nz; ++z) {
    for (size_t y = 0; y < ny; ++y) {
      for (size_t x = 0; x < nx; ++x) {
        double expected =
            (x == mx && y == my && z == mz) ? double(nx * ny * nz) : 0.0;
        EXPECT_NEAR(std::abs(g.at(x, y, z)), expected, 1e-8);
      }
    }
  }
}

// The transform's two halves fanned out as graph grains on four lanes —
// planes, then columns — reproduce the serial transform bit for bit in
// both directions: every line is transformed in place on its own.
TEST(Fft3d, PlaneAndColumnFanOutMatchesSerialBitwise) {
  Grid3D serial(16, 8, 32);
  SequentialRng rng(5);
  for (auto& v : serial.raw()) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (FftDirection dir : {FftDirection::kForward, FftDirection::kInverse}) {
    Grid3D staged = serial;
    if (dir == FftDirection::kForward) {
      fft3d_forward(serial);
    } else {
      fft3d_inverse(serial);
    }
    util::TaskGraph graph(util::TaskRuntime::create(4), "fft_test.fanout");
    const util::TaskId planes = graph.add_parallel(
        "fft_test.planes", [&] { return staged.nz(); },
        [&](size_t z) { fft3d_plane(staged, z, dir); });
    graph.add_parallel(
        "fft_test.columns", [&] { return staged.ny(); },
        [&](size_t y) { fft3d_columns(staged, y, dir); },
        {planes});
    graph.run();
    EXPECT_EQ(std::memcmp(staged.raw().data(), serial.raw().data(),
                          serial.size() * sizeof(Complex)),
              0);
  }
}

TEST(Fft3d, RejectsNonPow2Grid) {
  EXPECT_THROW(Grid3D(7, 8, 8), Error);
}

TEST(Fft3d, CostEstimateScales) {
  auto small = estimate_fft_cost(32, 32, 32, 1);
  auto big = estimate_fft_cost(64, 64, 64, 1);
  EXPECT_GT(big.flops, 8.0 * small.flops * 0.9);
  EXPECT_EQ(small.alltoall_bytes, 0.0);  // single node: no transpose

  auto dist = estimate_fft_cost(32, 32, 32, 8);
  EXPECT_GT(dist.alltoall_bytes, 0.0);
  EXPECT_EQ(dist.messages_per_node, 14u);  // 2 transposes × 7 peers
}

}  // namespace
}  // namespace antmd
