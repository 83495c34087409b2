// Energy bookkeeping shared by all force kernels.
#pragma once

#include <string>
#include <vector>

#include "math/fixed.hpp"
#include "math/vec.hpp"

namespace antmd {

/// Per-term potential energy, accumulated in order-independent fixed point
/// so distributed and single-node evaluation agree bitwise.
struct EnergyBreakdown {
  FixedScalar bond;
  FixedScalar angle;
  FixedScalar dihedral;
  FixedScalar vdw;            ///< LJ / custom tabulated pair terms
  FixedScalar coulomb_real;   ///< real-space (erfc-screened) Coulomb
  FixedScalar coulomb_kspace; ///< reciprocal-space Ewald
  FixedScalar coulomb_self;   ///< Ewald self + excluded-pair corrections
  FixedScalar pair14;         ///< scaled 1-4 interactions
  FixedScalar restraint;      ///< position/distance/steering restraints
  FixedScalar external;       ///< external fields

  [[nodiscard]] double total() const {
    return bond.value() + angle.value() + dihedral.value() + vdw.value() +
           coulomb_real.value() + coulomb_kspace.value() +
           coulomb_self.value() + pair14.value() + restraint.value() +
           external.value();
  }

  void merge(const EnergyBreakdown& o) {
    bond.merge(o.bond);
    angle.merge(o.angle);
    dihedral.merge(o.dihedral);
    vdw.merge(o.vdw);
    coulomb_real.merge(o.coulomb_real);
    coulomb_kspace.merge(o.coulomb_kspace);
    coulomb_self.merge(o.coulomb_self);
    pair14.merge(o.pair14);
    restraint.merge(o.restraint);
    external.merge(o.external);
  }

  [[nodiscard]] std::string summary() const;
};

/// Full result of a force evaluation.
struct ForceResult {
  FixedForceArray forces;
  EnergyBreakdown energy;
  Mat3 virial;  ///< sum over interactions of r⊗f (double precision; barostat
                ///< input only, not part of the determinism contract)

  explicit ForceResult(size_t n_atoms = 0) : forces(n_atoms) {}

  void reset(size_t n_atoms) {
    forces.resize(n_atoms);
    energy = EnergyBreakdown{};
    virial = Mat3{};
  }

  void merge(const ForceResult& o) {
    forces.merge(o.forces);
    energy.merge(o.energy);
    virial += o.virial;
  }
};

/// Persistent partial sums of one fan-out of force work, reused across
/// evaluations: the host's cluster-tile chunks and the machine's node
/// tasks both add into them.  Forces accumulate into lane-private
/// fixed-point arrays (indexed by util::TaskRuntime::current_lane()) that
/// stay allocated — and zeroed, via FixedForceArray::drain_into in
/// reduce() — between evaluations, so the per-call cost is the fold
/// itself, not an O(lanes × atoms) clear.  Energy and virial partials are
/// per *slot* (a tile chunk, a machine node), not per lane, because the
/// double-precision virial's summation grouping must be a function of the
/// work alone; reduce() merges them in ascending slot order.
struct PartialSums {
  std::vector<FixedForceArray> lane_forces;
  std::vector<EnergyBreakdown> slot_energy;
  std::vector<Mat3> slot_virial;
  /// False while an evaluation is in flight; a dirty prepare re-clears the
  /// lane arrays (only happens after an exception unwound an evaluation).
  bool clean = true;

  /// Sizes (and when needed clears) the sinks for one evaluation with
  /// `lanes` worker lanes, `n_atoms` atoms and `slots` slots.  Runs before
  /// the first task adds into them.
  void prepare(size_t lanes, size_t n_atoms, size_t slots);

  /// The fixed-order reduction: drains every lane's forces into `out`
  /// (integer, order-free) and merges slot energy and virial in ascending
  /// slot order — the same summation grouping as a serial loop over slots.
  void reduce(ForceResult& out);
};

}  // namespace antmd
