#include "ff/forcefield.hpp"

#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace antmd {

ForceField::ForceField(const Topology& topo, ff::NonbondedModel model,
                       GseParams gse)
    : topo_(&topo), tables_(topo, model) {
  if (model.electrostatics == ff::Electrostatics::kEwaldReal) {
    gse.beta = model.ewald_beta;
    // The box is supplied per call; build with a placeholder and rebuild on
    // first use via on_box_changed.  A unit box is safe for construction.
    gse_ = std::make_unique<GseSolver>(Box::cubic(64.0), gse);
  }
  excluded_pairs_ = topo.excluded_pairs();
  set_charge_product_scale(charge_scale_);
}

void ForceField::set_charge_product_scale(double s) {
  charge_scale_ = s;
  ++generation_;
  // Charge-product scaling s means each charge scales by sqrt(s).
  const double f = std::sqrt(s);
  kspace_charges_.assign(topo_->charges().begin(), topo_->charges().end());
  for (double& q : kspace_charges_) q *= f;
}

void ForceField::set_custom_pair_table(uint32_t type_a, uint32_t type_b,
                                       RadialTable table) {
  tables_.set_custom_table(type_a, type_b, std::move(table));
  ++generation_;
}

void ForceField::add_position_restraint(ff::PositionRestraint r) {
  ANTMD_REQUIRE(r.atom < topo_->atom_count(), "restraint atom out of range");
  pos_restraints_.push_back(r);
  ++generation_;
}

void ForceField::add_distance_restraint(ff::DistanceRestraint r) {
  ANTMD_REQUIRE(r.i < topo_->atom_count() && r.j < topo_->atom_count(),
                "restraint atoms out of range");
  dist_restraints_.push_back(r);
  ++generation_;
}

size_t ForceField::add_pair_bias(ff::PairBias bias) {
  ANTMD_REQUIRE(bias.i < topo_->atom_count() && bias.j < topo_->atom_count(),
                "bias atoms out of range");
  ANTMD_REQUIRE(bias.potential != nullptr, "bias needs a potential");
  biases_.push_back(std::move(bias));
  ++generation_;
  return biases_.size() - 1;
}

size_t ForceField::add_dihedral_bias(ff::DihedralBias bias) {
  const auto n = static_cast<uint32_t>(topo_->atom_count());
  ANTMD_REQUIRE(bias.i < n && bias.j < n && bias.k < n && bias.l < n,
                "bias atoms out of range");
  ANTMD_REQUIRE(bias.potential != nullptr, "bias needs a potential");
  dihedral_biases_.push_back(std::move(bias));
  ++generation_;
  return dihedral_biases_.size() - 1;
}

void ForceField::clear_pair_biases() {
  biases_.clear();
  dihedral_biases_.clear();
  ++generation_;
}

size_t ForceField::add_steered_spring(ff::SteeredSpring s) {
  ANTMD_REQUIRE(s.i < topo_->atom_count() && s.j < topo_->atom_count(),
                "spring atoms out of range");
  steered_.push_back(s);
  ++generation_;
  return steered_.size() - 1;
}

void ForceField::set_external_field(Vec3 field) {
  field_ = ff::ExternalField{field};
  field_atoms_.resize(topo_->atom_count());
  std::iota(field_atoms_.begin(), field_atoms_.end(), uint32_t{0});
  ++generation_;
}

ff::BondedTerms ForceField::bonded_terms() const {
  return {topo_->bonds(),       topo_->angles(),        topo_->dihedrals(),
          topo_->morse_bonds(), topo_->urey_bradleys(), topo_->impropers(),
          topo_->go_contacts(), topo_->pairs14(),       pos_restraints_,
          dist_restraints_,     steered_,               biases_,
          dihedral_biases_,     field_atoms_};
}

void ForceField::compute_bonded(std::span<const Vec3> pos, const Box& box,
                                double time, ForceResult& out) const {
  compute_bonded_terms(bonded_terms(), pos, box, time, out);
}

void ForceField::compute_bonded_terms(const ff::BondedTerms& terms,
                                      std::span<const Vec3> pos,
                                      const Box& box, double time,
                                      ForceResult& out) const {
  ff::compute_bonds(terms.bonds, pos, box, out);
  ff::compute_angles(terms.angles, pos, box, out);
  ff::compute_dihedrals(terms.dihedrals, pos, box, out);
  ff::compute_morse_bonds(terms.morse_bonds, pos, box, out);
  ff::compute_urey_bradleys(terms.urey_bradleys, pos, box, out);
  ff::compute_impropers(terms.impropers, pos, box, out);
  ff::compute_go_contacts(terms.go_contacts, pos, box, out);
  ff::compute_pairs14(terms.pairs14, tables_, topo_->type_ids(),
                      topo_->charges(), pos, box, out);
  ff::compute_position_restraints(terms.pos_restraints, pos, box, out);
  ff::compute_distance_restraints(terms.dist_restraints, pos, box, out);
  ff::compute_steered_springs(terms.springs, pos, box, time, out);
  ff::compute_pair_biases(terms.biases, pos, box, out);
  ff::compute_dihedral_biases(terms.dihedral_biases, pos, box, out);
  if (field_) {
    ff::compute_external_field(*field_, topo_->charges(), pos,
                               terms.field_atoms, out);
  }
}

void ForceField::compute_nonbonded(std::span<const ff::PairEntry> pairs,
                                   std::span<const Vec3> pos, const Box& box,
                                   ForceResult& out) const {
  ff::compute_pairs(pairs, tables_, topo_->type_ids(), topo_->charges(), pos,
                    box, out, vdw_scale_, charge_scale_);
}

void ForceField::compute_nonbonded_clusters(const ff::ClusterPairList& clusters,
                                            std::span<const Vec3> pos,
                                            const Box& box, ForceResult& out,
                                            ExecutionContext* exec) const {
  ff::compute_clusters(clusters, tables_, pos, box, out, vdw_scale_,
                       charge_scale_, exec);
}

void ForceField::compute_kspace(std::span<const Vec3> pos, const Box& box,
                                ForceResult& out) const {
  if (!gse_) return;
  gse_->compute(pos, kspace_charges_, excluded_pairs_, box, out);
}

void ForceField::on_box_changed(const Box& box) {
  if (gse_) gse_->rebuild(box);
}

}  // namespace antmd
