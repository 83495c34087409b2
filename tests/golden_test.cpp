// Golden-physics differential harness for the nonbonded kernel rewrite.
//
// Two layers of defense around the hot path:
//   1. pair vs cluster: the two kernels must agree EXACTLY (identical raw
//      fixed-point quanta per energy term and per atom force) — blocking is
//      a data-layout change, not a physics change;
//   2. vs committed goldens: per-term energies, sampled forces and the
//      virial trace must match the text fixtures in tests/golden/ to a
//      small relative tolerance (absorbing libm variation across
//      toolchains), so a silent physics change in EITHER kernel fails with
//      a per-term diff.
//
// Regenerate fixtures with scripts/regen_golden.sh (sets
// ANTMD_GOLDEN_REGEN=1; the test then rewrites the files and passes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ff/forcefield.hpp"
#include "ff/nonbonded_cluster.hpp"
#include "md/neighbor.hpp"
#include "topo/builders.hpp"
#include "util/execution.hpp"

using namespace antmd;

#ifndef ANTMD_GOLDEN_DIR
#define ANTMD_GOLDEN_DIR "tests/golden"
#endif

namespace {

constexpr double kSkin = 1.0;
constexpr double kRelTol = 1e-8;   // vs goldens (libm headroom)
constexpr double kAbsFloor = 1e-10;

struct KernelResults {
  ForceResult pair;
  ForceResult cluster;
  const ff::ClusterPairList* clusters = nullptr;  // owned by cluster_list
  md::NeighborList pair_list;
  md::NeighborList cluster_list;

  KernelResults(const Topology& topo, double cutoff)
      : pair(topo.atom_count()),
        cluster(topo.atom_count()),
        pair_list(topo, cutoff, kSkin, /*cluster_mode=*/false),
        cluster_list(topo, cutoff, kSkin, /*cluster_mode=*/true) {}
};

/// Evaluates bonded + real-space nonbonded with both kernels, plus the
/// reciprocal-space part into both when the model has one.
KernelResults evaluate_both(const SystemSpec& spec, ForceField& ffield) {
  KernelResults r(spec.topology, ffield.model().cutoff);
  r.pair_list.build(spec.positions, spec.box);
  r.cluster_list.build(spec.positions, spec.box);
  r.clusters = &r.cluster_list.clusters();

  ffield.compute_bonded(spec.positions, spec.box, 0.0, r.pair);
  ffield.compute_nonbonded(r.pair_list.pairs(), spec.positions, spec.box,
                           r.pair);

  ffield.compute_bonded(spec.positions, spec.box, 0.0, r.cluster);
  ffield.compute_nonbonded_clusters(*r.clusters, spec.positions, spec.box,
                                    r.cluster);
  if (ffield.has_kspace()) {
    ffield.on_box_changed(spec.box);
    ffield.compute_kspace(spec.positions, spec.box, r.pair);
    ffield.compute_kspace(spec.positions, spec.box, r.cluster);
  }
  return r;
}

/// The energy terms a fixture pins; reciprocal-space cases add the two
/// GSE terms, which real-space-only fixtures do not carry.
std::vector<std::pair<std::string, const FixedScalar*>> terms_of(
    const EnergyBreakdown& e, bool kspace) {
  std::vector<std::pair<std::string, const FixedScalar*>> terms = {
      {"bond", &e.bond},
      {"angle", &e.angle},
      {"dihedral", &e.dihedral},
      {"vdw", &e.vdw},
      {"coulomb_real", &e.coulomb_real},
      {"pair14", &e.pair14},
      {"restraint", &e.restraint}};
  if (kspace) {
    terms.push_back({"coulomb_kspace", &e.coulomb_kspace});
    terms.push_back({"coulomb_self", &e.coulomb_self});
  }
  return terms;
}

std::vector<size_t> sample_atoms(size_t n) {
  return {0, 1, 2, 3, n / 2, n - 1};
}

std::string golden_path(const std::string& name) {
  return std::string(ANTMD_GOLDEN_DIR) + "/" + name + ".golden";
}

bool regen_requested() {
  const char* env = std::getenv("ANTMD_GOLDEN_REGEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void write_golden(const std::string& name, const ForceResult& res,
                  bool kspace) {
  std::ofstream out(golden_path(name));
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
  out.precision(15);
  out << std::scientific;
  out << "# antmd golden fixture: " << name << "\n";
  out << "# regenerate with scripts/regen_golden.sh\n";
  for (const auto& [term, value] : terms_of(res.energy, kspace)) {
    out << "term " << term << " " << value->value() << "\n";
  }
  for (size_t i : sample_atoms(res.forces.size())) {
    Vec3 f = res.forces.force(i);
    out << "force " << i << " " << f.x << " " << f.y << " " << f.z << "\n";
  }
  out << "virial_trace " << trace(res.virial) << "\n";
}

struct Golden {
  std::map<std::string, double> terms;
  std::map<size_t, Vec3> forces;
  double virial_trace = 0.0;
};

Golden read_golden(const std::string& name) {
  Golden g;
  std::ifstream in(golden_path(name));
  EXPECT_TRUE(in.good()) << "missing fixture " << golden_path(name)
                         << " — run scripts/regen_golden.sh";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "term") {
      std::string term;
      double v = 0;
      ls >> term >> v;
      g.terms[term] = v;
    } else if (kind == "force") {
      size_t i = 0;
      Vec3 f;
      ls >> i >> f.x >> f.y >> f.z;
      g.forces[i] = f;
    } else if (kind == "virial_trace") {
      ls >> g.virial_trace;
    }
  }
  return g;
}

::testing::AssertionResult close_to(double got, double want,
                                    const std::string& what) {
  const double diff = std::fabs(got - want);
  const double tol = kAbsFloor + kRelTol * std::fabs(want);
  if (diff <= tol) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << what << ": got " << got << ", golden " << want << " (|diff| "
         << diff << " > tol " << tol << ")";
}

void run_golden_case(const std::string& name, const SystemSpec& spec,
                     ff::NonbondedModel model) {
  ForceField ffield(spec.topology, model);
  KernelResults r = evaluate_both(spec, ffield);

  // Structure sanity: the tile masks encode exactly the flat pair set.
  ASSERT_EQ(r.clusters->real_pairs, r.pair_list.pairs().size());
  ASSERT_GT(r.clusters->fill_ratio(), 0.0);
  ASSERT_LE(r.clusters->fill_ratio(), 1.0);

  // Layer 1 — differential: EXACT fixed-point agreement between kernels.
  const bool kspace = ffield.has_kspace();
  auto pair_terms = terms_of(r.pair.energy, kspace);
  auto cluster_terms = terms_of(r.cluster.energy, kspace);
  for (size_t t = 0; t < pair_terms.size(); ++t) {
    EXPECT_EQ(pair_terms[t].second->raw(), cluster_terms[t].second->raw())
        << name << " term " << pair_terms[t].first
        << " differs between pair and cluster kernels: pair="
        << pair_terms[t].second->value()
        << " cluster=" << cluster_terms[t].second->value();
  }
  ASSERT_EQ(r.pair.forces.size(), r.cluster.forces.size());
  for (size_t i = 0; i < r.pair.forces.size(); ++i) {
    EXPECT_EQ(r.pair.forces.quanta(i), r.cluster.forces.quanta(i))
        << name << " force on atom " << i << " differs between kernels";
  }
  for (int k = 0; k < 9; ++k) {
    EXPECT_NEAR(r.pair.virial.m[k], r.cluster.virial.m[k],
                kAbsFloor + kRelTol * std::fabs(r.pair.virial.m[k]))
        << name << " virial component " << k;
  }

  // Layer 2 — vs committed goldens (or regenerate them).
  if (regen_requested()) {
    write_golden(name, r.pair, kspace);
    return;
  }
  Golden g = read_golden(name);
  for (const auto& [term, value] : pair_terms) {
    ASSERT_TRUE(g.terms.count(term))
        << name << ": fixture missing term " << term
        << " — run scripts/regen_golden.sh";
    EXPECT_TRUE(close_to(value->value(), g.terms.at(term),
                         name + " energy term '" + term + "'"));
  }
  for (const auto& [atom, f] : g.forces) {
    Vec3 got = r.pair.forces.force(atom);
    EXPECT_TRUE(close_to(got.x, f.x, name + " force[" +
                                         std::to_string(atom) + "].x"));
    EXPECT_TRUE(close_to(got.y, f.y, name + " force[" +
                                         std::to_string(atom) + "].y"));
    EXPECT_TRUE(close_to(got.z, f.z, name + " force[" +
                                         std::to_string(atom) + "].z"));
  }
  EXPECT_TRUE(
      close_to(trace(r.pair.virial), g.virial_trace, name + " virial trace"));
}

ff::NonbondedModel lj_model(double cutoff) {
  ff::NonbondedModel m;
  m.cutoff = cutoff;
  m.electrostatics = ff::Electrostatics::kNone;
  return m;
}

}  // namespace

TEST(GoldenTest, LjFluid) {
  run_golden_case("lj_fluid_216", build_lj_fluid(216, 0.021, 7),
                  lj_model(8.0));
}

TEST(GoldenTest, SolvatedMiniprotein) {
  run_golden_case("miniprotein_8_216", build_polymer_in_solvent(8, 216, 7),
                  lj_model(7.0));
}

TEST(GoldenTest, IonicSolution) {
  ff::NonbondedModel m;
  m.cutoff = 6.0;
  m.electrostatics = ff::Electrostatics::kReactionCutoff;
  run_golden_case("ionic_125_4", build_ionic_solution(125, 4, 7), m);
}

// Reciprocal space: flexible water under GSE.  The fixture pins
// coulomb_kspace and coulomb_self next to the real-space terms, and its
// sampled forces and virial trace include the k-space part.
TEST(GoldenTest, GseWater) {
  ff::NonbondedModel m;
  m.cutoff = 7.0;
  m.electrostatics = ff::Electrostatics::kEwaldReal;
  m.ewald_beta = 0.4;
  run_golden_case("gse_water_216",
                  build_water_box(216, WaterModel::kFlexible3Site, 7), m);
}

// Cluster kernel bit-identity across thread counts, including the
// double-precision virial (the fixed-size chunk partition + ascending merge
// contract of ff::compute_clusters).
TEST(GoldenTest, ClusterKernelThreadInvariance) {
  SystemSpec spec = build_lj_fluid(512, 0.021, 11);
  ForceField ffield(spec.topology, lj_model(8.0));
  md::NeighborList list(spec.topology, 8.0, kSkin, /*cluster_mode=*/true);
  list.build(spec.positions, spec.box);

  auto run_with = [&](size_t threads) {
    ForceResult res(spec.topology.atom_count());
    auto exec = ExecutionContext::create(ExecutionConfig{threads});
    ffield.compute_nonbonded_clusters(list.clusters(), spec.positions,
                                      spec.box, res, exec.get());
    return res;
  };

  ForceResult t1 = run_with(1);
  for (size_t threads : {2u, 8u}) {
    ForceResult tn = run_with(threads);
    EXPECT_TRUE(t1.forces == tn.forces)
        << "forces differ at " << threads << " threads";
    EXPECT_EQ(t1.energy.vdw.raw(), tn.energy.vdw.raw());
    EXPECT_EQ(t1.energy.coulomb_real.raw(), tn.energy.coulomb_real.raw());
    for (int k = 0; k < 9; ++k) {
      EXPECT_EQ(t1.virial.m[k], tn.virial.m[k])
          << "virial component " << k << " differs at " << threads
          << " threads";
    }
  }
}
