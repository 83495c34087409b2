#include "ewald/gse.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "math/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace antmd {
namespace {

size_t next_pow2(double x) {
  size_t n = 1;
  while (static_cast<double>(n) < x) n <<= 1;
  return n;
}

/// Wraps a (possibly negative) grid index into [0, n).
inline size_t wrap_index(long i, long n) {
  long m = i % n;
  if (m < 0) m += n;
  return static_cast<size_t>(m);
}

}  // namespace

GseSolver::GseSolver(const Box& box, GseParams params)
    : params_(params) {
  ANTMD_REQUIRE(params_.beta > 0, "beta must be positive");
  ANTMD_REQUIRE(params_.sigma_split > 0 && params_.sigma_split < 1,
                "sigma_split must be in (0, 1)");
  rebuild(box);
}

void GseSolver::rebuild(const Box& box) {
  nx_ = next_pow2(box.edges().x / params_.grid_spacing);
  ny_ = next_pow2(box.edges().y / params_.grid_spacing);
  nz_ = next_pow2(box.edges().z / params_.grid_spacing);
  // Total reciprocal Gaussian variance α = 1/(4β²); σ_s² takes a fraction.
  const double alpha = 1.0 / (4.0 * params_.beta * params_.beta);
  sigma_s_ = std::sqrt(params_.sigma_split * alpha);
  const double h_max =
      std::max({box.edges().x / static_cast<double>(nx_),
                box.edges().y / static_cast<double>(ny_),
                box.edges().z / static_cast<double>(nz_)});
  support_ = static_cast<int>(
      std::ceil(params_.stencil_sigmas * sigma_s_ / h_max));
  ANTMD_REQUIRE(support_ >= 1, "spreading support collapsed to zero");
  ANTMD_REQUIRE(2 * support_ + 1 <= static_cast<int>(std::min({nx_, ny_, nz_})),
                "grid too small for the spreading stencil");
}

GseWorkload GseSolver::workload(size_t n_charges) const {
  GseWorkload w;
  w.grid_points = nx_ * ny_ * nz_;
  size_t stencil = static_cast<size_t>(2 * support_ + 1);
  w.spread_stencil_points = stencil * stencil * stencil;
  w.charges = n_charges;
  w.fft_flops = 2.0 * estimate_fft_cost(nx_, ny_, nz_, 1).flops;  // fwd+inv
  return w;
}

/// One evaluation: its input, the grid geometry it started with and its
/// workspace.  Lives from the chain's first stage to its last.
struct GseSolver::Evaluation {
  Evaluation(const GseSolver& solver, const GseInput& input)
      : in(input),
        nx(solver.nx_),
        ny(solver.ny_),
        nz(solver.nz_),
        sup(solver.support_),
        stencil(static_cast<size_t>(2 * solver.support_ + 1)),
        hx(in.box.edges().x / static_cast<double>(nx)),
        hy(in.box.edges().y / static_cast<double>(ny)),
        hz(in.box.edges().z / static_cast<double>(nz)),
        cell_volume(hx * hy * hz),
        alpha(1.0 / (4.0 * solver.params_.beta * solver.params_.beta)),
        sigma2(solver.sigma_s_ * solver.sigma_s_),
        gauss_norm(std::pow(2.0 * M_PI * sigma2, -1.5)),
        atoms(util::plan_chunks(in.pos.size(), kAtomsPerChunk,
                                kMaxAtomChunks)),
        slabs((nz + kSlabPlanes - 1) / kSlabPlanes),
        grid(nx, ny, nz),
        r(in.pos.size()),
        cell(in.pos.size()),
        weights(in.pos.size() * 3 * stencil) {
    ANTMD_REQUIRE(in.charges.size() == in.pos.size(),
                  "positions/charges size mismatch");
    ANTMD_REQUIRE(in.out != nullptr, "k-space evaluation needs an output");
  }

  /// Atoms per chunk of the stencil and interpolation fan-outs, and the
  /// grid planes each spreading slab owns.  Constants: the partitions
  /// depend on the atom count and the grid only, never on the lane count.
  static constexpr size_t kAtomsPerChunk = 256;
  static constexpr size_t kMaxAtomChunks = 256;
  static constexpr size_t kSlabPlanes = 4;

  [[nodiscard]] const double* weights_of(size_t i) const {
    return &weights[i * 3 * stencil];
  }

  /// Grid indices of one atom's stencil along one axis: the wrapped run
  /// starting at cell c - support.
  void stencil_indices(long c, size_t n, std::vector<size_t>& out) const {
    size_t g = wrap_index(c - sup, static_cast<long>(n));
    for (size_t k = 0; k < stencil; ++k) {
      out[k] = g;
      if (++g == n) g = 0;
    }
  }

  /// Per atom: wrapped position, base cell and the three per-axis weight
  /// vectors (the exp() calls spreading and interpolation share).  The x
  /// weights carry the Gaussian normalization: both consumers multiply it
  /// in first, so storing gauss_norm·wx keeps their products unchanged.
  void compute_stencil(size_t chunk) {
    const double two_sigma2 = 2.0 * sigma2;
    for (size_t i = atoms.begin(chunk); i < atoms.end(chunk); ++i) {
      if (in.charges[i] == 0.0) continue;
      const Vec3 ri = in.box.wrap(in.pos[i]);
      const long cx = static_cast<long>(std::floor(ri.x / hx));
      const long cy = static_cast<long>(std::floor(ri.y / hy));
      const long cz = static_cast<long>(std::floor(ri.z / hz));
      double* wx = &weights[i * 3 * stencil];
      double* wy = wx + stencil;
      double* wz = wy + stencil;
      for (int o = -sup; o <= sup; ++o) {
        const double dx = ri.x - static_cast<double>(cx + o) * hx;
        const double dy = ri.y - static_cast<double>(cy + o) * hy;
        const double dz = ri.z - static_cast<double>(cz + o) * hz;
        const auto k = static_cast<size_t>(o + sup);
        wx[k] = gauss_norm * std::exp(-dx * dx / two_sigma2);
        wy[k] = std::exp(-dy * dy / two_sigma2);
        wz[k] = std::exp(-dz * dz / two_sigma2);
      }
      r[i] = ri;
      cell[i] = {cx, cy, cz};
    }
  }

  /// Spreads every charge's share of the planes [z0, z1) this slab owns.
  /// Atoms are visited in ascending index, so each grid point sums its
  /// contributions in the same order as one serial loop over atoms.
  void spread_slab(size_t slab) {
    const size_t z0 = slab * kSlabPlanes;
    const size_t z1 = std::min(nz, z0 + kSlabPlanes);
    std::vector<size_t> gx(stencil), gy(stencil);
    for (size_t i = 0; i < in.pos.size(); ++i) {
      const double q = in.charges[i];
      if (q == 0.0) continue;
      const double* wx = weights_of(i);
      const double* wy = wx + stencil;
      const double* wz = wy + stencil;
      size_t gz = wrap_index(cell[i][2] - sup, static_cast<long>(nz));
      bool indexed = false;
      for (size_t kz = 0; kz < stencil; ++kz, gz = gz + 1 == nz ? 0 : gz + 1) {
        if (gz < z0 || gz >= z1) continue;
        if (!indexed) {
          stencil_indices(cell[i][0], nx, gx);
          stencil_indices(cell[i][1], ny, gy);
          indexed = true;
        }
        for (size_t ky = 0; ky < stencil; ++ky) {
          const double wyz = wy[ky] * wz[kz];
          Complex* row = &grid.at(0, gy[ky], gz);
          for (size_t kx = 0; kx < stencil; ++kx) {
            const double w = wx[kx] * wyz;
            row[gx[kx]] += Complex(q * w, 0.0);
          }
        }
      }
    }
  }

  /// Multiplies the transformed charge grid by the influence function and
  /// sums the energy and virial in grid order (one serial pass).
  void convolve() {
    const Vec3 edges = in.box.edges();
    const double volume = in.box.volume();
    const double kernel_alpha = alpha - sigma2;  // remaining variance
    const double two_pi = 2.0 * M_PI;
    for (size_t iz = 0; iz < nz; ++iz) {
      long mz = static_cast<long>(iz);
      if (mz > static_cast<long>(nz / 2)) mz -= static_cast<long>(nz);
      double kz = two_pi * static_cast<double>(mz) / edges.z;
      for (size_t iy = 0; iy < ny; ++iy) {
        long my = static_cast<long>(iy);
        if (my > static_cast<long>(ny / 2)) my -= static_cast<long>(ny);
        double ky = two_pi * static_cast<double>(my) / edges.y;
        for (size_t ix = 0; ix < nx; ++ix) {
          long mx = static_cast<long>(ix);
          if (mx > static_cast<long>(nx / 2)) mx -= static_cast<long>(nx);
          double kx = two_pi * static_cast<double>(mx) / edges.x;
          double k2 = kx * kx + ky * ky + kz * kz;
          Complex& g = grid.at(ix, iy, iz);
          if (k2 == 0.0) {
            g = {0.0, 0.0};  // tinfoil boundary conditions
            continue;
          }
          double green = 4.0 * M_PI * units::kCoulomb / k2 *
                         std::exp(-kernel_alpha * k2);
          // Energy via Parseval on the DFT coefficients:
          // rho_hat(k) = F * cell_volume; E = 1/(2V) Σ G |rho_hat|² / kC...
          double f2 = std::norm(g) * cell_volume * cell_volume;
          double e_k = 0.5 / volume * green * f2;
          energy += e_k;
          double vfac = 2.0 * (1.0 / k2 + alpha);
          virial(0, 0) += e_k * (1.0 - vfac * kx * kx);
          virial(1, 1) += e_k * (1.0 - vfac * ky * ky);
          virial(2, 2) += e_k * (1.0 - vfac * kz * kz);
          virial(0, 1) += e_k * (-vfac * kx * ky);
          virial(0, 2) += e_k * (-vfac * kx * kz);
          virial(1, 2) += e_k * (-vfac * ky * kz);
          g *= green;
        }
      }
    }
    virial(1, 0) = virial(0, 1);
    virial(2, 0) = virial(0, 2);
    virial(2, 1) = virial(1, 2);
  }

  /// Interpolates each atom's force off the potential grid; the stencil
  /// points sum in a fixed order and the force is written once.
  void interpolate(size_t chunk) {
    std::vector<size_t> gx(stencil), gy(stencil), gz(stencil);
    std::vector<double> dx(stencil), dy(stencil), dz(stencil);
    for (size_t i = atoms.begin(chunk); i < atoms.end(chunk); ++i) {
      const double q = in.charges[i];
      if (q == 0.0) continue;
      const Vec3 ri = r[i];
      const std::array<long, 3>& c = cell[i];
      for (int o = -sup; o <= sup; ++o) {
        const auto k = static_cast<size_t>(o + sup);
        dx[k] = ri.x - static_cast<double>(c[0] + o) * hx;
        dy[k] = ri.y - static_cast<double>(c[1] + o) * hy;
        dz[k] = ri.z - static_cast<double>(c[2] + o) * hz;
      }
      stencil_indices(c[0], nx, gx);
      stencil_indices(c[1], ny, gy);
      stencil_indices(c[2], nz, gz);
      const double* wx = weights_of(i);
      const double* wy = wx + stencil;
      const double* wz = wy + stencil;
      Vec3 f{};
      for (size_t kz = 0; kz < stencil; ++kz) {
        for (size_t ky = 0; ky < stencil; ++ky) {
          const Complex* row = &grid.at(0, gy[ky], gz[kz]);
          for (size_t kx = 0; kx < stencil; ++kx) {
            const double w = wx[kx] * wy[ky] * wz[kz];
            const double phi = row[gx[kx]].real();
            // f = -q ∇φ_interp; ∇W = -d/σ² W  (d = r_atom - r_cell)
            const double coeff = q * phi * cell_volume * w / sigma2;
            f += coeff * Vec3{dx[kx], dy[ky], dz[kz]};
          }
        }
      }
      in.out->forces.add(i, f);
    }
  }

  GseInput in;
  size_t nx, ny, nz;
  int sup;
  size_t stencil;
  double hx, hy, hz, cell_volume;
  double alpha;   ///< total reciprocal Gaussian variance 1/(4β²)
  double sigma2;  ///< spreading variance
  double gauss_norm;
  util::ChunkPlan atoms;
  size_t slabs;
  Grid3D grid;
  // Per-atom stencil, mapped like the grid (see util/page_allocator.hpp).
  template <typename T>
  using Workspace = std::vector<T, util::PageAllocator<T>>;
  Workspace<Vec3> r;                    ///< wrapped positions
  Workspace<std::array<long, 3>> cell;  ///< base cells
  Workspace<double> weights;  ///< per atom: gauss_norm·x, y, z weights
  double energy = 0.0;
  Mat3 virial{};
  double start_us = 0.0;
};

/// State the stage tasks of one appended chain share across graph runs.
struct GseSolver::Pipeline {
  InputFn input;
  std::optional<Evaluation> eval;
};

util::TaskId GseSolver::append_stages(util::TaskGraph& graph, InputFn input,
                                      std::vector<util::TaskId> deps) const {
  auto p = std::make_shared<Pipeline>();
  p->input = std::move(input);
  auto grains = [p](size_t Evaluation::*count) {
    return [p, count] { return p->eval ? (*p->eval).*count : size_t{0}; };
  };
  auto fft_planes = [p](FftDirection dir) {
    return [p, dir](size_t z) { fft3d_plane(p->eval->grid, z, dir); };
  };
  auto fft_columns = [p](FftDirection dir) {
    return [p, dir](size_t y) {
      fft3d_columns(p->eval->grid, y, 0, p->eval->nx, dir);
    };
  };

  // The chain starts here: resolve this run's input and allocate its
  // workspace (single-threaded, before any grain runs).
  const util::TaskId t_stencil = graph.add_parallel(
      "md.kspace.stencil",
      [this, p] {
        p->eval.reset();
        std::optional<GseInput> in = p->input();
        if (!in) return size_t{0};
        p->eval.emplace(*this, *in);
        if (in->span_ns != nullptr && obs::enabled()) {
          p->eval->start_us = obs::now_us();
        }
        return p->eval->atoms.chunks;
      },
      [p](size_t chunk) { p->eval->compute_stencil(chunk); }, std::move(deps));
  const util::TaskId t_spread = graph.add_parallel(
      "md.kspace.spread", grains(&Evaluation::slabs),
      [p](size_t slab) { p->eval->spread_slab(slab); }, {t_stencil});
  const util::TaskId t_fwd_planes = graph.add_parallel(
      "md.kspace.fwd_planes", grains(&Evaluation::nz),
      fft_planes(FftDirection::kForward), {t_spread});
  const util::TaskId t_fwd_columns = graph.add_parallel(
      "md.kspace.fwd_columns", grains(&Evaluation::ny),
      fft_columns(FftDirection::kForward), {t_fwd_planes});
  const util::TaskId t_convolve = graph.add(
      "md.kspace.convolve",
      [p] {
        if (p->eval) p->eval->convolve();
      },
      {t_fwd_columns});
  const util::TaskId t_inv_planes = graph.add_parallel(
      "md.kspace.inv_planes", grains(&Evaluation::nz),
      fft_planes(FftDirection::kInverse), {t_convolve});
  const util::TaskId t_inv_columns = graph.add_parallel(
      "md.kspace.inv_columns", grains(&Evaluation::ny),
      fft_columns(FftDirection::kInverse), {t_inv_planes});
  const util::TaskId t_interp = graph.add_parallel(
      "md.kspace.interpolate",
      [p] { return p->eval ? p->eval->atoms.chunks : size_t{0}; },
      [p](size_t chunk) { p->eval->interpolate(chunk); }, {t_inv_columns});
  return graph.add_reduction(
      "md.kspace.finish",
      [this, p] {
        if (!p->eval) return;
        Evaluation& e = *p->eval;
        ForceResult& out = *e.in.out;
        out.energy.coulomb_kspace.add(e.energy);
        out.virial += e.virial;
        corrections(e.in.pos, e.in.charges, e.in.excluded_pairs, e.in.box,
                    out);
        if (e.in.span_ns != nullptr && obs::enabled()) {
          e.in.span_ns->add(
              static_cast<uint64_t>((obs::now_us() - e.start_us) * 1e3));
        }
        p->eval.reset();
      },
      {t_interp});
}

void GseSolver::compute(
    std::span<const Vec3> pos, std::span<const double> charges,
    std::span<const std::pair<uint32_t, uint32_t>> excluded_pairs,
    const Box& box, ForceResult& out) const {
  util::TaskGraph graph(nullptr, "ewald.gse");
  append_stages(graph, [&]() -> std::optional<GseInput> {
    return GseInput{pos, charges, excluded_pairs, box, &out};
  });
  graph.run();
}

void GseSolver::corrections(
    std::span<const Vec3> pos, std::span<const double> charges,
    std::span<const std::pair<uint32_t, uint32_t>> excluded_pairs,
    const Box& box, ForceResult& out) const {
  const double beta = params_.beta;
  double q2_sum = 0.0;
  double q_sum = 0.0;
  for (double q : charges) {
    q2_sum += q * q;
    q_sum += q;
  }
  // Point self-interaction removed from the reciprocal sum.
  double self_energy = -units::kCoulomb * beta / std::sqrt(M_PI) * q2_sum;
  // Neutralizing background for non-neutral systems.
  double bg_energy = -units::kCoulomb * M_PI /
                     (2.0 * beta * beta * box.volume()) * q_sum * q_sum;
  out.energy.coulomb_self.add(self_energy + bg_energy);
  out.virial += Mat3::diagonal(bg_energy, bg_energy, bg_energy);

  // Excluded pairs: the reciprocal sum contains their full (smeared)
  // interaction; remove the erf(βr)/r piece so excluded pairs feel nothing.
  const double two_beta_over_sqrt_pi = 2.0 * beta / std::sqrt(M_PI);
  for (const auto& [i, j] : excluded_pairs) {
    double qq = charges[i] * charges[j];
    if (qq == 0.0) continue;
    Vec3 d = box.min_image(pos[i], pos[j]);
    double r2 = norm2(d);
    double r = std::sqrt(r2);
    double erf_term = std::erf(beta * r);
    double gauss = two_beta_over_sqrt_pi * std::exp(-beta * beta * r2);
    double energy = -units::kCoulomb * qq * erf_term / r;
    // f_over_r for U = -kC qq erf(βr)/r:
    double f_over_r =
        units::kCoulomb * qq * (gauss / r2 - erf_term / (r2 * r));
    Vec3 f = f_over_r * d;
    out.forces.add_pair(i, j, f);
    out.energy.coulomb_self.add(energy);
    out.virial += outer(d, f);
  }
}

void GseSolver::compute_reference(
    std::span<const Vec3> pos, std::span<const double> charges,
    std::span<const std::pair<uint32_t, uint32_t>> excluded_pairs,
    const Box& box, double beta, int kmax, ForceResult& out) {
  const size_t n = pos.size();
  const double volume = box.volume();
  const double alpha = 1.0 / (4.0 * beta * beta);
  const double two_pi = 2.0 * M_PI;

  double energy = 0.0;
  for (int mx = -kmax; mx <= kmax; ++mx) {
    for (int my = -kmax; my <= kmax; ++my) {
      for (int mz = -kmax; mz <= kmax; ++mz) {
        if (mx == 0 && my == 0 && mz == 0) continue;
        Vec3 k{two_pi * mx / box.edges().x, two_pi * my / box.edges().y,
               two_pi * mz / box.edges().z};
        double k2 = norm2(k);
        double green =
            4.0 * M_PI * units::kCoulomb / k2 * std::exp(-alpha * k2);
        double re = 0.0, im = 0.0;  // S(k)
        for (size_t i = 0; i < n; ++i) {
          double phase = dot(k, pos[i]);
          re += charges[i] * std::cos(phase);
          im += charges[i] * std::sin(phase);
        }
        energy += 0.5 / volume * green * (re * re + im * im);
        for (size_t i = 0; i < n; ++i) {
          double phase = dot(k, pos[i]);
          double c = std::cos(phase), s = std::sin(phase);
          // f_i = -(1/V) G q_i k (c·Im S - s·Re S)
          double coeff =
              -green / volume * charges[i] * (c * im - s * re);
          out.forces.add(i, coeff * k);
        }
      }
    }
  }
  out.energy.coulomb_kspace.add(energy);

  GseParams p;
  p.beta = beta;
  GseSolver solver(box, p);
  solver.corrections(pos, charges, excluded_pairs, box, out);
}

}  // namespace antmd
