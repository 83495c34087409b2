#include "ff/forcefield.hpp"

#include <cmath>

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
  // Charge-product scaling s means each charge scales by sqrt(s).
  const double f = std::sqrt(s);
  kspace_charges_.assign(topo_->charges().begin(), topo_->charges().end());
  for (double& q : kspace_charges_) q *= f;
}

void ForceField::set_custom_pair_table(uint32_t type_a, uint32_t type_b,
                                       RadialTable table) {
  tables_.set_custom_table(type_a, type_b, std::move(table));
}

void ForceField::add_position_restraint(ff::PositionRestraint r) {
  ANTMD_REQUIRE(r.atom < topo_->atom_count(), "restraint atom out of range");
  pos_restraints_.push_back(r);
}

void ForceField::add_distance_restraint(ff::DistanceRestraint r) {
  ANTMD_REQUIRE(r.i < topo_->atom_count() && r.j < topo_->atom_count(),
                "restraint atoms out of range");
  dist_restraints_.push_back(r);
}

size_t ForceField::add_pair_bias(ff::PairBias bias) {
  ANTMD_REQUIRE(bias.i < topo_->atom_count() && bias.j < topo_->atom_count(),
                "bias atoms out of range");
  ANTMD_REQUIRE(bias.potential != nullptr, "bias needs a potential");
  biases_.push_back(std::move(bias));
  return biases_.size() - 1;
}

size_t ForceField::add_dihedral_bias(ff::DihedralBias bias) {
  const auto n = static_cast<uint32_t>(topo_->atom_count());
  ANTMD_REQUIRE(bias.i < n && bias.j < n && bias.k < n && bias.l < n,
                "bias atoms out of range");
  ANTMD_REQUIRE(bias.potential != nullptr, "bias needs a potential");
  dihedral_biases_.push_back(std::move(bias));
  return dihedral_biases_.size() - 1;
}

void ForceField::clear_pair_biases() {
  biases_.clear();
  dihedral_biases_.clear();
}

size_t ForceField::add_steered_spring(ff::SteeredSpring s) {
  ANTMD_REQUIRE(s.i < topo_->atom_count() && s.j < topo_->atom_count(),
                "spring atoms out of range");
  steered_.push_back(s);
  return steered_.size() - 1;
}

void ForceField::set_external_field(Vec3 field) {
  field_ = ff::ExternalField{field};
}

void ForceField::compute_bonded(std::span<const Vec3> pos, const Box& box,
                                double time, ForceResult& out) const {
  ff::compute_bonds(topo_->bonds(), pos, box, out);
  ff::compute_angles(topo_->angles(), pos, box, out);
  ff::compute_dihedrals(topo_->dihedrals(), pos, box, out);
  ff::compute_morse_bonds(topo_->morse_bonds(), pos, box, out);
  ff::compute_urey_bradleys(topo_->urey_bradleys(), pos, box, out);
  ff::compute_impropers(topo_->impropers(), pos, box, out);
  ff::compute_go_contacts(topo_->go_contacts(), pos, box, out);
  ff::compute_pairs14(topo_->pairs14(), tables_, topo_->type_ids(),
                      topo_->charges(), pos, box, out);
  ff::compute_position_restraints(pos_restraints_, pos, box, out);
  ff::compute_distance_restraints(dist_restraints_, pos, box, out);
  if (!steered_.empty()) {
    ff::compute_steered_springs(steered_, pos, box, time, out);
  }
  if (!biases_.empty()) {
    ff::compute_pair_biases(biases_, pos, box, out);
  }
  if (!dihedral_biases_.empty()) {
    ff::compute_dihedral_biases(dihedral_biases_, pos, box, out);
  }
  if (field_) {
    ff::compute_external_field(*field_, topo_->charges(), pos, out);
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

void ForceField::compute_all(std::span<Vec3> pos, const Box& box, double time,
                             std::span<const ff::PairEntry> pairs,
                             ForceResult& out) const {
  ff::construct_virtual_sites(topo_->virtual_sites(), pos, box);
  compute_bonded(pos, box, time, out);
  compute_nonbonded(pairs, pos, box, out);
  compute_kspace(pos, box, out);
  ff::spread_virtual_site_forces(topo_->virtual_sites(), pos, box,
                                 out.forces);
}

void ForceField::on_box_changed(const Box& box) {
  if (gse_) gse_->rebuild(box);
}

}  // namespace antmd
