// ForceField: the user-facing force engine.
//
// Owns the tabulated pair interactions, bonded terms, restraints, virtual
// sites and the GSE long-range solver, and exposes the split evaluation
// (bonded / real-space pairs / k-space) that both the single-host simulator
// (md::Simulation) and the machine-mapped runtime call.  The split mirrors
// the hardware mapping: pair tables → HTIS pipelines, everything else →
// geometry cores, k-space → spread/FFT/interpolate pipeline.  The
// geometry-core terms are evaluated by one routine, compute_bonded_terms,
// over the whole system on the host and over one node's share of it on the
// machine.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ewald/gse.hpp"
#include "ff/bias.hpp"
#include "ff/bonded.hpp"
#include "ff/energy.hpp"
#include "ff/nonbonded.hpp"
#include "ff/nonbonded_cluster.hpp"
#include "ff/restraints.hpp"
#include "ff/vsites.hpp"
#include "topo/topology.hpp"

namespace antmd {

namespace ff {

/// The terms the geometry cores evaluate — topology bonded terms, 1-4
/// pairs and the extension terms — as spans over either the whole system
/// (ForceField::bonded_terms) or one machine node's share of it.
struct BondedTerms {
  std::span<const Bond> bonds;
  std::span<const Angle> angles;
  std::span<const Dihedral> dihedrals;
  std::span<const MorseBond> morse_bonds;
  std::span<const UreyBradley> urey_bradleys;
  std::span<const Improper> impropers;
  std::span<const GoContact> go_contacts;
  std::span<const Pair14> pairs14;
  std::span<const PositionRestraint> pos_restraints;
  std::span<const DistanceRestraint> dist_restraints;
  std::span<const SteeredSpring> springs;
  std::span<const PairBias> biases;
  std::span<const DihedralBias> dihedral_biases;
  /// Atoms the external field (if the force field has one) acts on.
  std::span<const uint32_t> field_atoms;
};

}  // namespace ff

class ForceField {
 public:
  /// Builds tables for the topology under the given nonbonded model.
  /// The topology must outlive the force field.
  ForceField(const Topology& topo, ff::NonbondedModel model,
             GseParams gse = GseParams{});

  // --- generality extensions -------------------------------------------------
  // Every mutator below bumps generation(): a consumer that copies terms
  // out of the field (the machine's node partitions) compares it to know
  // when its copies are stale.
  /// Installs a custom tabulated pair potential for a type pair.
  void set_custom_pair_table(uint32_t type_a, uint32_t type_b,
                             RadialTable table);
  void add_position_restraint(ff::PositionRestraint r);
  /// Installs (or replaces) a mutable pair-distance bias; returns its index.
  size_t add_pair_bias(ff::PairBias bias);
  size_t add_dihedral_bias(ff::DihedralBias bias);
  void clear_pair_biases();
  void add_distance_restraint(ff::DistanceRestraint r);
  /// Returns the index of the added spring (for reading extensions back).
  size_t add_steered_spring(ff::SteeredSpring s);
  void set_external_field(Vec3 field);
  /// Global Hamiltonian scalings (H-REMD / FEP windows).
  void set_vdw_scale(double s) {
    vdw_scale_ = s;
    ++generation_;
  }
  /// Also refreshes kspace_charges().
  void set_charge_product_scale(double s);
  [[nodiscard]] double vdw_scale() const { return vdw_scale_; }
  [[nodiscard]] double charge_product_scale() const { return charge_scale_; }
  /// The charges reciprocal space sees: each topology charge times
  /// √charge_product_scale (read from the topology at construction).
  [[nodiscard]] std::span<const double> kspace_charges() const {
    return kspace_charges_;
  }
  /// Count of mutations so far (see the note above the mutators).
  [[nodiscard]] uint64_t generation() const { return generation_; }

  // --- evaluation -------------------------------------------------------------
  /// The whole system's geometry-core terms.
  [[nodiscard]] ff::BondedTerms bonded_terms() const;

  /// Evaluates `terms` with this field's tables, charges and external
  /// field, kernel by kernel in one fixed order, so the virial of any
  /// subset sums in the same order on the host and on a machine node.
  /// `time` is elapsed simulation time (internal units) for steered springs.
  void compute_bonded_terms(const ff::BondedTerms& terms,
                            std::span<const Vec3> pos, const Box& box,
                            double time, ForceResult& out) const;

  /// Real-space nonbonded terms over an externally built pair list.
  void compute_nonbonded(std::span<const ff::PairEntry> pairs,
                         std::span<const Vec3> pos, const Box& box,
                         ForceResult& out) const;

  /// Same terms over the blocked cluster-pair list (bit-identical to
  /// compute_nonbonded over the list's source pairs); `runtime` fans the
  /// tile chunks out deterministically when parallel.
  void compute_nonbonded_clusters(const ff::ClusterPairList& clusters,
                                  std::span<const Vec3> pos, const Box& box,
                                  ForceResult& out,
                                  util::TaskRuntime* runtime = nullptr) const;

  /// Reciprocal-space electrostatics (no-op unless the model is kEwaldReal)
  /// on a grid sized for `box`.
  void compute_kspace(std::span<const Vec3> pos, const Box& box,
                      ForceResult& out) const;

  // --- access ------------------------------------------------------------------
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const ff::PairTableSet& tables() const { return tables_; }
  [[nodiscard]] const ff::NonbondedModel& model() const { return tables_.model(); }
  [[nodiscard]] bool has_kspace() const { return gse_ != nullptr; }
  [[nodiscard]] const GseSolver* gse() const { return gse_.get(); }
  [[nodiscard]] const std::vector<ff::SteeredSpring>& steered_springs() const {
    return steered_;
  }
  [[nodiscard]] const std::vector<ff::PairBias>& pair_biases() const {
    return biases_;
  }
  [[nodiscard]] const std::vector<ff::DihedralBias>& dihedral_biases() const {
    return dihedral_biases_;
  }
  [[nodiscard]] const std::vector<ff::PositionRestraint>&
  position_restraints() const {
    return pos_restraints_;
  }
  [[nodiscard]] const std::vector<ff::DistanceRestraint>&
  distance_restraints() const {
    return dist_restraints_;
  }
  [[nodiscard]] const std::optional<ff::ExternalField>& external_field()
      const {
    return field_;
  }
  [[nodiscard]] const std::vector<std::pair<uint32_t, uint32_t>>&
  excluded_pairs() const {
    return excluded_pairs_;
  }

  /// Visits the static data a step reads — every pair table's knot/packed
  /// arrays and the flattened exclusion list — as fn(name, data, bytes)
  /// with mutable pointers, for SDC scrub registration (golden CRC +
  /// pristine mirror, see resilience/audit.hpp).  All of it is immutable
  /// once the run starts, which is what makes build-time CRCs sound.
  template <typename Fn>
  void visit_scrub_regions(Fn&& fn) {
    tables_.visit_scrub_regions(fn);
    fn("exclusions", static_cast<void*>(excluded_pairs_.data()),
       excluded_pairs_.size() * sizeof(std::pair<uint32_t, uint32_t>));
  }

 private:
  const Topology* topo_;
  ff::PairTableSet tables_;
  std::unique_ptr<GseSolver> gse_;
  std::vector<std::pair<uint32_t, uint32_t>> excluded_pairs_;
  std::vector<double> kspace_charges_;
  std::vector<ff::PositionRestraint> pos_restraints_;
  std::vector<ff::DistanceRestraint> dist_restraints_;
  std::vector<ff::SteeredSpring> steered_;
  std::vector<ff::PairBias> biases_;
  std::vector<ff::DihedralBias> dihedral_biases_;
  std::optional<ff::ExternalField> field_;
  std::vector<uint32_t> field_atoms_;  ///< every atom, once a field is set
  double vdw_scale_ = 1.0;
  double charge_scale_ = 1.0;
  uint64_t generation_ = 0;
};

}  // namespace antmd
