// Cross-ISA differential harness for the integer-SIMD cluster kernels.
//
// The SIMD variants (ff/nonbonded_simd_{avx2,avx512}.cpp) claim
// bit-for-bit equivalence with the scalar tile loop — not "close", equal.
// This suite fuzzes that claim over ~200 seeded random systems spanning
// the kernel envelope: mixed atom types (including zero-epsilon species),
// every electrostatics mode, non-unit H-REMD scales,
// varied cutoffs/skins/bin counts, non-cubic boxes, and systems small
// enough that whole tiles are padding (kPadAtom edges) or a single atom.
// Each ISA the build + CPU supports is called directly (no dispatch
// global involved) and compared against compute_cluster_entries_scalar:
//   - every atom's raw force quanta,
//   - raw vdw and coulomb_real energy quanta,
//   - all nine virial components, compared as bits (the canonical
//     8-sub-accumulator grouping makes even the double-precision virial
//     reproduce exactly).
// The flat pair kernel cross-check and the dispatcher/arena gates get
// their own cases below.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ff/nonbonded.hpp"
#include "ff/nonbonded_cluster.hpp"
#include "ff/nonbonded_simd.hpp"
#include "md/neighbor.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"

using namespace antmd;

namespace {

struct FuzzCase {
  Topology topo;
  std::vector<Vec3> positions;
  Box box;
  double cutoff = 8.0;
  double skin = 1.0;
  ff::NonbondedModel model;
  double vdw_scale = 1.0;
  double cps = 1.0;
  std::string label;
};

FuzzCase make_case(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uni = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&](uint32_t n) {
    return std::uniform_int_distribution<uint32_t>(0, n - 1)(rng);
  };

  FuzzCase c;
  c.cutoff = uni(4.0, 9.0);
  c.skin = uni(0.3, 1.5);
  const double base = 2.0 * (c.cutoff + c.skin) * (1.02 + uni(0.0, 0.5));
  const bool cubic = pick(2) == 0;
  c.box = Box(base, cubic ? base : base * uni(1.0, 1.3),
              cubic ? base : base * uni(1.0, 1.3));

  const uint32_t n_types = 1 + pick(4);
  const uint32_t elec_mode = pick(10);
  c.model.cutoff = c.cutoff;
  c.model.table_bins = std::array<size_t, 3>{64, 256, 1024}[pick(3)];
  c.model.electrostatics = elec_mode < 4 ? ff::Electrostatics::kEwaldReal
                           : elec_mode < 7
                               ? ff::Electrostatics::kReactionCutoff
                               : ff::Electrostatics::kNone;
  const bool charged = c.model.electrostatics != ff::Electrostatics::kNone;
  for (uint32_t t = 0; t < n_types; ++t) {
    // One type in four is a zero-epsilon species (zero VDW table).
    const double eps = pick(4) == 0 ? 0.0 : uni(0.05, 0.4);
    c.topo.add_type("T" + std::to_string(t), uni(2.4, 3.6), eps);
  }
  // Small systems stress padded tiles; larger ones stress full ones.
  const Vec3 edges = c.box.edges();
  const size_t n_atoms = pick(4) == 0 ? 1 + pick(24) : 40 + pick(280);
  for (size_t i = 0; i < n_atoms; ++i) {
    const double q = charged && pick(10) < 7 ? uni(-1.0, 1.0) : 0.0;
    c.topo.add_atom(pick(n_types), 12.0, q);
    c.positions.push_back(
        {uni(0.0, edges.x), uni(0.0, edges.y), uni(0.0, edges.z)});
  }
  if (pick(5) == 0) c.vdw_scale = uni(0.25, 1.75);
  if (charged && pick(5) == 0) c.cps = uni(0.25, 1.75);
  c.label = "seed=" + std::to_string(seed) + " n=" + std::to_string(n_atoms) +
            " types=" + std::to_string(n_types) +
            " elec=" + std::to_string(static_cast<int>(c.model.electrostatics));
  return c;
}

struct EvalOut {
  std::vector<std::array<int64_t, 3>> quanta;
  int64_t vdw_raw = 0;
  int64_t elec_raw = 0;
  Mat3 virial;
};

template <typename Fn>
EvalOut run_kernel(const FuzzCase& c, const ff::ClusterPairList& list,
                   const ff::PairTableSet& tables, Fn&& kernel) {
  const size_t n = c.topo.atom_count();
  FixedForceArray forces(n);
  EnergyBreakdown energy;
  Mat3 virial{};
  const std::span<const ff::ClusterPairEntry> entries(list.entries);
  const double vdw_scale = c.vdw_scale;
  const double cps = c.cps;
  kernel(list, entries, tables, c.box, forces, energy, virial, vdw_scale,
         cps);
  EvalOut out;
  out.quanta.reserve(n);
  for (size_t i = 0; i < n; ++i) out.quanta.push_back(forces.quanta(i));
  out.vdw_raw = energy.vdw.raw();
  out.elec_raw = energy.coulomb_real.raw();
  out.virial = virial;
  return out;
}

void expect_bit_identical(const EvalOut& ref, const EvalOut& got,
                          const std::string& what) {
  ASSERT_EQ(ref.quanta.size(), got.quanta.size()) << what;
  for (size_t i = 0; i < ref.quanta.size(); ++i) {
    ASSERT_EQ(ref.quanta[i], got.quanta[i])
        << what << ": force quanta differ at atom " << i;
  }
  EXPECT_EQ(ref.vdw_raw, got.vdw_raw) << what << ": vdw energy quanta";
  EXPECT_EQ(ref.elec_raw, got.elec_raw) << what << ": elec energy quanta";
  for (int k = 0; k < 9; ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(ref.virial.m[k]),
              std::bit_cast<uint64_t>(got.virial.m[k]))
        << what << ": virial component " << k << " differs in bits ("
        << ref.virial.m[k] << " vs " << got.virial.m[k] << ")";
  }
}

/// Every SIMD entry point this build + CPU can run, name + function.
using ClusterKernelFn = void (*)(const ff::ClusterPairList&,
                                 std::span<const ff::ClusterPairEntry>,
                                 const ff::PairTableSet&, const Box&,
                                 FixedForceArray&, EnergyBreakdown&, Mat3&,
                                 double, double);
std::vector<std::pair<std::string, ClusterKernelFn>> simd_variants() {
  std::vector<std::pair<std::string, ClusterKernelFn>> v;
#if defined(ANTMD_HAVE_SIMD_AVX2)
  if (ff::kernel_isa_supported(ff::KernelIsa::kAvx2)) {
    v.emplace_back("avx2", &ff::compute_cluster_entries_avx2);
  }
#endif
#if defined(ANTMD_HAVE_SIMD_AVX512)
  if (ff::kernel_isa_supported(ff::KernelIsa::kAvx512)) {
    v.emplace_back("avx512", &ff::compute_cluster_entries_avx512);
  }
#endif
  return v;
}

void run_differential(const FuzzCase& c) {
  ff::PairTableSet tables(c.topo, c.model);
  ASSERT_TRUE(tables.simd_arena().valid) << c.label;
  md::NeighborList nlist(c.topo, c.cutoff, c.skin, /*cluster_mode=*/true);
  nlist.build(c.positions, c.box);
  const ff::ClusterPairList& list = nlist.clusters();
  ff::gather_cluster_coords(list, c.positions);

  const EvalOut ref =
      run_kernel(c, list, tables, ff::compute_cluster_entries_scalar);
  for (const auto& [name, fn] : simd_variants()) {
    expect_bit_identical(ref, run_kernel(c, list, tables, fn),
                         c.label + " isa=" + name);
  }
  // The dispatcher (whatever ISA is active) must agree too.
  expect_bit_identical(
      ref,
      run_kernel(c, list, tables,
                 [](auto&... args) { ff::compute_cluster_entries(args...); }),
      c.label + " dispatcher(" +
          std::string(ff::to_string(ff::active_kernel_isa())) + ")");
}

TEST(SimdKernel, DifferentialFuzz200Systems) {
  if (simd_variants().empty()) {
    GTEST_SKIP() << "no SIMD variant compiled in / supported on this CPU";
  }
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    run_differential(make_case(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A custom table sharing the model's geometry keeps the arena valid and
// must stay inside the bit-identity envelope.
TEST(SimdKernel, CustomTableSameGeometryStaysSimd) {
  if (simd_variants().empty()) GTEST_SKIP();
  FuzzCase c = make_case(4242);
  ff::PairTableSet tables(c.topo, c.model);
  tables.set_custom_table(
      0, 0, ff::make_softcore_lj_table(3.1, 0.2, 0.5, 0.5, c.model));
  ASSERT_TRUE(tables.simd_arena().valid);
  md::NeighborList nlist(c.topo, c.cutoff, c.skin, true);
  nlist.build(c.positions, c.box);
  const ff::ClusterPairList& list = nlist.clusters();
  ff::gather_cluster_coords(list, c.positions);
  const EvalOut ref =
      run_kernel(c, list, tables, ff::compute_cluster_entries_scalar);
  for (const auto& [name, fn] : simd_variants()) {
    expect_bit_identical(ref, run_kernel(c, list, tables, fn),
                         "custom-table isa=" + name);
  }
}

// A single-type system with a uniformly shorter custom table gives an
// arena whose s_max lies inside the cutoff — the one configuration where
// the SIMD kernels' out-of-table blend actually fires.
TEST(SimdKernel, ShortTableExercisesRangeGuard) {
  if (simd_variants().empty()) GTEST_SKIP();
  std::mt19937_64 rng(777);
  FuzzCase c;
  c.cutoff = 8.0;
  c.skin = 1.0;
  c.model.cutoff = c.cutoff;
  c.model.table_bins = 256;
  c.model.electrostatics = ff::Electrostatics::kNone;
  c.box = Box(20.0, 20.0, 20.0);
  c.topo.add_type("A", 3.0, 0.2);
  std::uniform_real_distribution<double> u(0.0, 20.0);
  for (size_t i = 0; i < 200; ++i) {
    c.topo.add_atom(0, 12.0, 0.0);
    c.positions.push_back({u(rng), u(rng), u(rng)});
  }
  ff::PairTableSet tables(c.topo, c.model);
  // Same potential, tabulated only out to r = 6 < cutoff: pairs between 6
  // and 8 Å hit the evaluate_view range guard in both kernels.
  tables.set_custom_table(
      0, 0,
      RadialTable::from_potential(
          [](double r) {
            const double s6 = std::pow(3.0 / r, 6);
            return 4.0 * 0.2 * (s6 * s6 - s6);
          },
          [](double r) {
            const double s6 = std::pow(3.0 / r, 6);
            return 4.0 * 0.2 * (-12.0 * s6 * s6 + 6.0 * s6) / r;
          },
          c.model.table_inner, 6.0, c.model.table_bins, true));
  ASSERT_TRUE(tables.simd_arena().valid)
      << "single-type arena should stay uniform";
  ASSERT_LT(tables.simd_arena().s_max, c.cutoff * c.cutoff);
  md::NeighborList nlist(c.topo, c.cutoff, c.skin, true);
  nlist.build(c.positions, c.box);
  const ff::ClusterPairList& list = nlist.clusters();
  ff::gather_cluster_coords(list, c.positions);
  const EvalOut ref =
      run_kernel(c, list, tables, ff::compute_cluster_entries_scalar);
  EXPECT_NE(ref.vdw_raw, 0);  // guard case must still do real work
  for (const auto& [name, fn] : simd_variants()) {
    expect_bit_identical(ref, run_kernel(c, list, tables, fn),
                         "short-table isa=" + name);
  }
}

// Non-uniform table geometry invalidates the arena; the dispatcher must
// quietly take the scalar path and still produce scalar bits.
TEST(SimdKernel, ArenaFallbackOnMixedGeometry) {
  FuzzCase c = make_case(31337);
  if (c.topo.type_count() < 2) c.topo.add_type("extra", 3.0, 0.1);
  ff::PairTableSet tables(c.topo, c.model);
  ASSERT_TRUE(tables.simd_arena().valid);
  tables.set_custom_table(
      0, 1,
      RadialTable::from_potential([](double) { return 0.0; },
                                      [](double) { return 0.0; },
                                      c.model.table_inner, c.model.cutoff,
                                      c.model.table_bins / 2, false));
  EXPECT_FALSE(tables.simd_arena().valid);
  md::NeighborList nlist(c.topo, c.cutoff, c.skin, true);
  nlist.build(c.positions, c.box);
  const ff::ClusterPairList& list = nlist.clusters();
  ff::gather_cluster_coords(list, c.positions);
  const EvalOut ref =
      run_kernel(c, list, tables, ff::compute_cluster_entries_scalar);
  expect_bit_identical(
      ref,
      run_kernel(c, list, tables,
                 [](auto&... args) { ff::compute_cluster_entries(args...); }),
      "mixed-geometry fallback");
}

// Sanity on the dispatch plumbing itself (the env override is exercised
// end-to-end by scripts/check_kernel_equivalence.sh, which runs whole
// trajectories under each ANTMD_FORCE_ISA value).
TEST(SimdKernel, DispatchProbeAndNames) {
  const ff::KernelIsa active = ff::active_kernel_isa();
  EXPECT_TRUE(ff::kernel_isa_supported(active));
  EXPECT_TRUE(ff::kernel_isa_supported(ff::KernelIsa::kScalar));
  EXPECT_TRUE(ff::kernel_isa_supported(ff::probe_kernel_isa()));
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    EXPECT_STREQ(ff::to_string(ff::parse_kernel_isa(name)), name);
  }
  EXPECT_THROW(ff::parse_kernel_isa("pentium"), ConfigError);
  EXPECT_THROW(ff::parse_kernel_isa("sse41"), ConfigError);  // removed
  EXPECT_THROW(ff::parse_kernel_isa(""), ConfigError);
  // set_kernel_isa round-trip (restoring the entry value; a no-op when the
  // test runs under ANTMD_FORCE_ISA, which is exactly the contract).
  ff::set_kernel_isa(ff::KernelIsa::kScalar);
  EXPECT_TRUE(ff::kernel_isa_supported(ff::active_kernel_isa()));
  ff::set_kernel_isa(active);
  EXPECT_EQ(ff::active_kernel_isa(), active);
}

// CI smoke: the build host must actually *run* the scalar path and the
// ISA the dispatcher picked.  These ASSERTs (not skips) catch a dispatch
// regression that silently drops variants on the machine that builds and
// tests every change.
TEST(SimdKernel, DispatchSmokeScalarAndActiveIsaRunOnBuildHost) {
  ASSERT_TRUE(ff::kernel_isa_supported(ff::KernelIsa::kScalar));
  ASSERT_TRUE(ff::kernel_isa_supported(ff::active_kernel_isa()));
  const FuzzCase c = make_case(7);
  ff::PairTableSet tables(c.topo, c.model);
  md::NeighborList nlist(c.topo, c.cutoff, c.skin, true);
  nlist.build(c.positions, c.box);
  const ff::ClusterPairList& list = nlist.clusters();
  ff::gather_cluster_coords(list, c.positions);
  const EvalOut ref =
      run_kernel(c, list, tables, ff::compute_cluster_entries_scalar);
  expect_bit_identical(
      ref,
      run_kernel(c, list, tables,
                 [](auto&... args) { ff::compute_cluster_entries(args...); }),
      std::string("build-host smoke isa=") +
          ff::to_string(ff::active_kernel_isa()));
}

}  // namespace
