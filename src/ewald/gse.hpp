// Gaussian Split Ewald (GSE) — the long-range electrostatics method Anton
// uses (Shan, Klepeis, Eastwood, Dror, Shaw, J. Chem. Phys. 122, 054101).
//
// The Ewald Gaussian of width 1/(2β) is split: part of the smearing is
// applied by spreading charges onto a regular grid with a Gaussian of
// variance σ_s², the rest is folded into the reciprocal-space convolution
// kernel, and the same Gaussian is reused to interpolate forces off the
// grid.  The k-space solve is a dense 3D FFT (fft/).
//
// One evaluation is a chain of stages, defined once in append_stages():
//   stencil      per atom chunk: wrapped position, base cell, per-axis weights
//   spread       per z-slab: each slab adds only into its own planes
//   fft forward  per z-plane (x, y lines), then per y-row (z lines)
//   convolve     serial: energy and virial sum in grid order
//   fft inverse  as forward
//   interpolate  per atom chunk: each atom's force summed and written once
//   finish       serial: energy, virial, self/background/exclusion terms
// Every grid point and every force sums in the same order as a plain serial
// loop, and the grain partitions depend only on the grid and the atom
// count, so the result is bit-identical at any lane count.  compute() runs
// the same stages on a serial graph.
//
// The solver holds no box: each evaluation sizes its grid and stencil from
// the box it is handed, so a trial box, a rescaled box and the run's box
// all go through one solver, and no box change can leave it gridded for
// another box.
//
// Correctness contract: real-space kernel (ff::Electrostatics::kEwaldReal
// with the same β) + this reciprocal part + self/exclusion/background
// corrections reproduces full Ewald electrostatics; the Madelung-constant
// test in tests/ewald_test.cpp pins this down.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fft/fft3d.hpp"
#include "ff/energy.hpp"
#include "math/pbc.hpp"
#include "util/task_graph.hpp"

namespace antmd {

namespace obs {
class Counter;
}

struct GseParams {
  double beta = 0.35;          ///< Ewald splitting parameter (Å⁻¹)
  double grid_spacing = 1.0;   ///< target grid spacing (Å); grid dims are
                               ///< rounded up to powers of two
  double sigma_split = 0.5;    ///< fraction of the total Gaussian variance
                               ///< assigned to spreading (0 < f < 1)
  double stencil_sigmas = 4.0; ///< spreading support radius in units of σ_s
                               ///< (the truncated tail gives the grid energy
                               ///< tiny C⁰ steps when the stencil shifts; 4σ
                               ///< keeps them ~1e-4 of the peak weight)
};

/// Workload statistics from one reciprocal-space evaluation, consumed by the
/// machine timing model (experiment F5).
struct GseWorkload {
  size_t grid_points = 0;
  size_t spread_stencil_points = 0;  ///< per charge
  size_t charges = 0;
  double fft_flops = 0.0;
};

/// What one reciprocal-space evaluation reads, and where it adds its result.
/// The spans must stay valid until the evaluation's last stage has run.
struct GseInput {
  std::span<const Vec3> pos;
  std::span<const double> charges;
  std::span<const std::pair<uint32_t, uint32_t>> excluded_pairs;
  Box box;
  ForceResult* out = nullptr;
  /// When set, receives the wall span of the whole stage chain (ns).
  obs::Counter* span_ns = nullptr;
};

class GseSolver {
 public:
  /// Called once per graph run, when the stage chain starts; nullopt skips
  /// every stage of that run (k-space not due).
  using InputFn = std::function<std::optional<GseInput>()>;

  explicit GseSolver(GseParams params);

  /// Adds reciprocal-space forces and energy for the given charges.
  /// Also adds the self-energy, neutralizing-background and excluded-pair
  /// corrections so that (real-space erfc loop + this) == full Ewald.
  /// Runs the stages of append_stages() in order on the calling thread.
  void compute(std::span<const Vec3> pos, std::span<const double> charges,
               std::span<const std::pair<uint32_t, uint32_t>> excluded_pairs,
               const Box& box, ForceResult& out) const;

  /// Appends the evaluation's stage DAG to `graph` behind `deps` and
  /// returns its final task.  The graph may be run any number of times;
  /// each run asks `input` for that run's evaluation.  The per-evaluation
  /// workspace (grid and per-atom stencil) is allocated when the chain
  /// starts and freed by its final task.  The grid is sized for that run's
  /// box at that point too, so the box may change between runs; the solver
  /// must outlive the graph.
  util::TaskId append_stages(util::TaskGraph& graph, InputFn input,
                             std::vector<util::TaskId> deps = {}) const;

  [[nodiscard]] const GseParams& params() const { return params_; }
  /// Grid dimensions of the last evaluation (0 before the first).
  [[nodiscard]] size_t nx() const { return last_.nx; }
  [[nodiscard]] size_t ny() const { return last_.ny; }
  [[nodiscard]] size_t nz() const { return last_.nz; }
  /// The work one evaluation in `box` does with `n_charges` charges.
  [[nodiscard]] GseWorkload workload(const Box& box, size_t n_charges) const;

  /// Direct (non-grid) reciprocal-space Ewald sum for validation; O(N·K).
  /// Includes the same self/background/exclusion corrections.
  static void compute_reference(std::span<const Vec3> pos,
                                std::span<const double> charges,
                                std::span<const std::pair<uint32_t, uint32_t>>
                                    excluded_pairs,
                                const Box& box, double beta, int kmax,
                                ForceResult& out);

 private:
  /// Grid dimensions (powers of two) and stencil half-width for one box.
  struct Grid {
    size_t nx = 0, ny = 0, nz = 0;
    int support = 0;  ///< stencil half-width in cells
  };
  struct Evaluation;
  struct Pipeline;

  /// Throws when the box is too small for the spreading stencil.
  [[nodiscard]] Grid grid_for(const Box& box) const;

  void corrections(std::span<const Vec3> pos, std::span<const double> charges,
                   std::span<const std::pair<uint32_t, uint32_t>>
                       excluded_pairs,
                   const Box& box, ForceResult& out) const;

  GseParams params_;
  double sigma_s_ = 0.0;  ///< spreading Gaussian std-dev (Å)
  /// Set when an evaluation starts (single-threaded, before its grains).
  mutable Grid last_;
};

}  // namespace antmd
