// Google-benchmark microbenchmarks of the host implementation's hot
// kernels.  These measure the *simulator's* speed (useful when sizing test
// budgets), not the modeled machine — modeled times come from machine/.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "ewald/gse.hpp"
#include "ff/forcefield.hpp"
#include "ff/nonbonded_simd.hpp"
#include "fft/fft3d.hpp"
#include "math/rng.hpp"
#include "math/spline.hpp"
#include "md/constraints.hpp"
#include "md/neighbor.hpp"
#include "topo/builders.hpp"

namespace antmd {
namespace {

void BM_RadialTableEval(benchmark::State& state) {
  auto table = RadialTable::from_potential(
      [](double r) {
        double s6 = std::pow(3.4 / r, 6);
        return 4.0 * 0.24 * (s6 * s6 - s6);
      },
      [](double r) {
        double s6 = std::pow(3.4 / r, 6);
        return 4.0 * 0.24 * (-12 * s6 * s6 + 6 * s6) / r;
      },
      0.9, 10.0, 2048, true);
  double r2 = 20.0;
  for (auto _ : state) {
    auto e = table.evaluate(r2);
    benchmark::DoNotOptimize(e);
    r2 = 10.0 + std::fmod(r2 + 1.37, 80.0);
  }
}
BENCHMARK(BM_RadialTableEval);

void BM_PairLoop(benchmark::State& state) {
  auto spec = build_lj_fluid(static_cast<size_t>(state.range(0)), 0.021, 3);
  ff::NonbondedModel model;
  model.cutoff = 8.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ff::PairTableSet tables(spec.topology, model);
  md::NeighborList list(spec.topology, model.cutoff, 1.0);
  list.build(spec.positions, spec.box);
  ForceResult out(spec.topology.atom_count());
  for (auto _ : state) {
    out.reset(spec.topology.atom_count());
    ff::compute_pairs(list.pairs(), tables, spec.topology.type_ids(),
                      spec.topology.charges(), spec.positions, spec.box,
                      out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(list.pairs().size()));
}
BENCHMARK(BM_PairLoop)->Arg(512)->Arg(1728);

void BM_ClusterPairLoop(benchmark::State& state) {
  auto spec = build_lj_fluid(static_cast<size_t>(state.range(0)), 0.021, 3);
  ff::NonbondedModel model;
  model.cutoff = 8.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ff::PairTableSet tables(spec.topology, model);
  md::NeighborList list(spec.topology, model.cutoff, 1.0,
                        /*cluster_mode=*/true);
  list.build(spec.positions, spec.box);
  ForceResult out(spec.topology.atom_count());
  for (auto _ : state) {
    out.reset(spec.topology.atom_count());
    ff::compute_clusters(list.clusters(), tables, spec.positions, spec.box,
                         out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(list.clusters().real_pairs));
}
BENCHMARK(BM_ClusterPairLoop)->Arg(512)->Arg(1728);

void BM_NeighborBuild(benchmark::State& state) {
  auto spec = build_lj_fluid(static_cast<size_t>(state.range(0)), 0.021, 5);
  md::NeighborList list(spec.topology, 8.0, 1.0);
  for (auto _ : state) {
    list.build(spec.positions, spec.box);
    benchmark::DoNotOptimize(list.pairs().size());
  }
}
BENCHMARK(BM_NeighborBuild)->Arg(1728)->Arg(4096);

void BM_Fft3d(benchmark::State& state) {
  auto n = static_cast<size_t>(state.range(0));
  Grid3D grid(n, n, n);
  SequentialRng rng(7);
  for (auto& v : grid.raw()) v = {rng.uniform(-1, 1), 0.0};
  for (auto _ : state) {
    fft3d_forward(grid);
    fft3d_inverse(grid);
    benchmark::DoNotOptimize(grid.raw()[0]);
  }
}
BENCHMARK(BM_Fft3d)->Arg(16)->Arg(32);

void BM_GseSolve(benchmark::State& state) {
  auto spec = build_water_box(static_cast<size_t>(state.range(0)),
                              WaterModel::kRigid3Site);
  GseParams params;
  params.beta = 0.4;
  GseSolver solver(params);
  auto excl = spec.topology.excluded_pairs();
  ForceResult out(spec.topology.atom_count());
  for (auto _ : state) {
    out.reset(spec.topology.atom_count());
    solver.compute(spec.positions, spec.topology.charges(), excl, spec.box,
                   out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GseSolve)->Arg(125)->Arg(512);

void BM_ShakeWaterBox(benchmark::State& state) {
  auto spec = build_water_box(216, WaterModel::kRigid3Site);
  md::ConstraintSolver solver(spec.topology);
  SequentialRng rng(3);
  auto perturbed = spec.positions;
  for (auto& p : perturbed) {
    p += Vec3{rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
              rng.uniform(-0.02, 0.02)};
  }
  std::vector<Vec3> velocities(perturbed.size(), Vec3{});
  for (auto _ : state) {
    auto work = perturbed;
    auto stats = solver.apply_positions(spec.positions, work, velocities,
                                        0.0, spec.box);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_ShakeWaterBox);

void BM_PhiloxGaussian3(benchmark::State& state) {
  CounterRng rng(42, 1);
  uint64_t i = 0;
  for (auto _ : state) {
    auto g = rng.gaussian3(i++, 17);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_PhiloxGaussian3);

// Head-to-head nonbonded throughput at the acceptance size (~12k atoms):
// both kernels over the same pair set, serial and with the worker pool,
// recorded to BENCH_micro_kernels.json so the speedup is tracked per run.
void kernel_throughput_report() {
  const size_t n_atoms = 12167;  // 23^3 LJ lattice
  auto spec = build_lj_fluid(n_atoms, 0.021, 3);
  ff::NonbondedModel model;
  model.cutoff = 8.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ff::PairTableSet tables(spec.topology, model);

  md::NeighborList pair_list(spec.topology, model.cutoff, 1.0);
  pair_list.build(spec.positions, spec.box);
  md::NeighborList cluster_list(spec.topology, model.cutoff, 1.0,
                                /*cluster_mode=*/true);
  cluster_list.build(spec.positions, spec.box);
  const ff::ClusterPairList& cl = cluster_list.clusters();
  const double n_pairs = static_cast<double>(pair_list.pairs().size());

  ForceResult out(n_atoms);
  auto best_eval_s = [&](auto&& body) {
    body();  // warm caches and scratch
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      for (int k = 0; k < 2; ++k) {
        out.reset(n_atoms);
        body();
      }
      double s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count() /
                 2.0;
      best = std::min(best, s);
    }
    return best;
  };

  const double pair_s = best_eval_s([&] {
    ff::compute_pairs(pair_list.pairs(), tables, spec.topology.type_ids(),
                      spec.topology.charges(), spec.positions, spec.box, out);
  });
  const double cluster_s = best_eval_s([&] {
    ff::compute_clusters(cl, tables, spec.positions, spec.box, out);
  });
  auto runtime = util::TaskRuntime::create(8);
  const double cluster8_s = best_eval_s([&] {
    ff::compute_clusters(cl, tables, spec.positions, spec.box, out, 1.0, 1.0,
                         runtime.get());
  });

  std::printf("\nnonbonded kernel throughput, %zu atoms, %.0f pairs "
              "(best of 5):\n",
              n_atoms, n_pairs);
  std::printf("  pair     (serial):    %8.3f ms  %7.1f Mpairs/s\n",
              pair_s * 1e3, n_pairs / pair_s * 1e-6);
  std::printf("  cluster  (serial):    %8.3f ms  %7.1f Mpairs/s  (%.2fx)\n",
              cluster_s * 1e3, n_pairs / cluster_s * 1e-6,
              pair_s / cluster_s);
  std::printf("  cluster  (8 threads): %8.3f ms  %7.1f Mpairs/s  (%.2fx)\n",
              cluster8_s * 1e3, n_pairs / cluster8_s * 1e-6,
              pair_s / cluster8_s);
  std::printf("  tile fill ratio: %.3f (%zu tiles, streamed fill %.3f)\n",
              cl.fill_ratio(), cl.entries.size(), cl.streamed_fill_ratio());

  std::vector<std::pair<std::string, double>> metrics = {
      {"atoms", static_cast<double>(n_atoms)},
      {"pairs", n_pairs},
      {"cluster_tiles", static_cast<double>(cl.entries.size())},
      {"cluster_fill_ratio", cl.fill_ratio()},
      {"cluster_streamed_fill_ratio", cl.streamed_fill_ratio()},
      {"pair_eval_s", pair_s},
      {"cluster_eval_s", cluster_s},
      {"cluster_eval_8t_s", cluster8_s},
      {"pair_mpairs_per_s", n_pairs / pair_s * 1e-6},
      {"cluster_mpairs_per_s", n_pairs / cluster_s * 1e-6},
      {"cluster_mpairs_per_s_8t", n_pairs / cluster8_s * 1e-6},
      {"speedup_cluster_vs_pair", pair_s / cluster_s},
      {"speedup_cluster_8t_vs_pair", pair_s / cluster8_s}};

  // Cluster-kernel ISA sweep, single thread: each variant this build/CPU
  // can run, its tile loop called directly (dispatch always picks the
  // widest), against the scalar loop.  All variants are bit-identical, so
  // the speedup column is the entire story — and the machine-checkable
  // >=4x acceptance gate lives in simd_best_speedup_vs_scalar below.
  const ff::KernelIsa dispatched = ff::active_kernel_isa();
  metrics.emplace_back("simd_dispatch_isa", static_cast<double>(dispatched));
  std::printf("  dispatched ISA: %s\n", ff::to_string(dispatched));
  ANTMD_REQUIRE(tables.simd_arena().valid,
                "the ISA sweep's tables must be inside the SIMD envelope");
  double scalar_s = 0.0;
  double best_speedup = 1.0;
  for (ff::KernelIsa isa : {ff::KernelIsa::kScalar, ff::KernelIsa::kAvx2,
                            ff::KernelIsa::kAvx512}) {
    if (!ff::kernel_isa_supported(isa)) continue;
    const ff::ClusterTileLoop loop = ff::cluster_tile_loop(isa);
    const double isa_s = best_eval_s([&] {
      ff::gather_cluster_coords(cl, spec.positions);
      loop(cl, cl.entries, tables, spec.box, out.forces, out.energy,
           out.virial, 1.0, 1.0);
    });
    if (isa == ff::KernelIsa::kScalar) scalar_s = isa_s;
    const double speedup = scalar_s / isa_s;
    best_speedup = std::max(best_speedup, speedup);
    const std::string key = std::string("simd_") + ff::to_string(isa);
    metrics.emplace_back(key + "_eval_s", isa_s);
    metrics.emplace_back(key + "_mpairs_per_s", n_pairs / isa_s * 1e-6);
    metrics.emplace_back(key + "_speedup_vs_scalar", speedup);
    std::printf("  cluster  (%-7s 1t): %8.3f ms  %7.1f Mpairs/s  "
                "(%.2fx vs scalar)\n",
                ff::to_string(isa), isa_s * 1e3, n_pairs / isa_s * 1e-6,
                speedup);
  }
  metrics.emplace_back("simd_best_speedup_vs_scalar", best_speedup);
  std::printf("  best SIMD speedup vs scalar cluster: %.2fx\n\n",
              best_speedup);

  bench::write_json_report("micro_kernels", 1, metrics);
}

}  // namespace
}  // namespace antmd

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  antmd::kernel_throughput_report();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
