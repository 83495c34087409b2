// Round-trip tests for the text system format.
#include <gtest/gtest.h>

#include <cstdio>

#include "io/system_io.hpp"
#include "md/simulation.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"

namespace antmd::io {
namespace {

void expect_equivalent(const SystemSpec& a, const SystemSpec& b) {
  const Topology& ta = a.topology;
  const Topology& tb = b.topology;
  ASSERT_EQ(ta.atom_count(), tb.atom_count());
  ASSERT_EQ(ta.type_count(), tb.type_count());
  for (size_t i = 0; i < ta.atom_count(); ++i) {
    EXPECT_EQ(ta.type_ids()[i], tb.type_ids()[i]);
    EXPECT_EQ(ta.masses()[i], tb.masses()[i]);
    EXPECT_EQ(ta.charges()[i], tb.charges()[i]);
    EXPECT_EQ(a.positions[i], b.positions[i]);  // exact: %.17g round trip
  }
  EXPECT_EQ(ta.bonds().size(), tb.bonds().size());
  EXPECT_EQ(ta.angles().size(), tb.angles().size());
  EXPECT_EQ(ta.dihedrals().size(), tb.dihedrals().size());
  EXPECT_EQ(ta.constraints().size(), tb.constraints().size());
  EXPECT_EQ(ta.virtual_sites().size(), tb.virtual_sites().size());
  EXPECT_EQ(ta.go_contacts().size(), tb.go_contacts().size());
  EXPECT_EQ(ta.molecules().size(), tb.molecules().size());
  EXPECT_EQ(ta.excluded_pairs(), tb.excluded_pairs());
  EXPECT_EQ(a.tagged, b.tagged);
  EXPECT_EQ(a.box.edges(), b.box.edges());
}

TEST(SystemIo, WaterRoundTripsExactly) {
  auto spec = build_water_box(27, WaterModel::kRigid4Site);
  auto restored = system_from_string(system_to_string(spec));
  expect_equivalent(spec, restored);
}

TEST(SystemIo, GoProteinRoundTripsWithReference) {
  auto spec = build_go_protein(16, 1.2);
  auto restored = system_from_string(system_to_string(spec));
  expect_equivalent(spec, restored);
  ASSERT_EQ(restored.reference.size(), spec.reference.size());
  for (size_t i = 0; i < spec.reference.size(); ++i) {
    EXPECT_EQ(restored.reference[i], spec.reference[i]);
  }
}

TEST(SystemIo, PolymerEnergyIdenticalAfterRoundTrip) {
  auto spec = build_polymer_in_solvent(10, 64);
  auto restored = system_from_string(system_to_string(spec));

  ff::NonbondedModel model;
  model.cutoff = 6.0;
  model.electrostatics = ff::Electrostatics::kNone;
  ForceField fa(spec.topology, model);
  ForceField fb(restored.topology, model);
  double ua = md::potential_energy(fa, spec.positions, spec.box);
  double ub = md::potential_energy(fb, restored.positions, restored.box);
  EXPECT_EQ(ua, ub);  // bitwise: same inputs through the same kernels
}

TEST(SystemIo, FileRoundTrip) {
  auto spec = build_lj_fluid(64, 0.021, 5);
  std::string path = "/tmp/antmd_system_io_test.sys";
  save_system(spec, path);
  auto restored = load_system(path);
  std::remove(path.c_str());
  expect_equivalent(spec, restored);
}

TEST(SystemIo, RejectsGarbage) {
  EXPECT_THROW(system_from_string("not a system file"), Error);
  EXPECT_THROW(system_from_string("antmd-system v1\nname x\nbox 1 2"),
               Error);
  EXPECT_THROW(load_system("/nonexistent/file.sys"), Error);
}

TEST(SystemIo, MoleculeNamesSurvive) {
  auto spec = build_lipid_bilayer(2, 1);
  auto restored = system_from_string(system_to_string(spec));
  ASSERT_EQ(restored.topology.molecules().size(),
            spec.topology.molecules().size());
  for (size_t m = 0; m < spec.topology.molecules().size(); ++m) {
    EXPECT_EQ(restored.topology.molecules()[m].name,
              spec.topology.molecules()[m].name);
  }
}

}  // namespace
}  // namespace antmd::io
