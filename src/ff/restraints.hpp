// Restraint and biasing forces — part of the generality extensions.
//
// These are time-dependent or geometrically irregular terms that run on the
// programmable geometry cores in the machine model.  They enable steered MD,
// umbrella sampling, and position anchoring of the kind the Shaw-group
// methods papers (ligand pulling, enhanced sampling) rely on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ff/energy.hpp"
#include "math/pbc.hpp"

namespace antmd::ff {

/// Harmonic position restraint with optional flat bottom:
/// U = k max(0, |r - center| - flat_radius)².
struct PositionRestraint {
  uint32_t atom = 0;
  Vec3 center;
  double k = 0.0;            ///< kcal/mol/Å²
  double flat_radius = 0.0;  ///< Å
};

/// Harmonic distance restraint between two atoms:
/// U = k (|r_ij| - r0)² outside the flat region [r0-flat, r0+flat].
struct DistanceRestraint {
  uint32_t i = 0, j = 0;
  double k = 0.0;
  double r0 = 0.0;
  double flat_half_width = 0.0;
};

/// Moving-anchor spring for steered MD: the reference distance moves at
/// `velocity` (Å per internal time unit) starting from r_start.
/// U(t) = k (|r_ij| - (r_start + velocity t))².
struct SteeredSpring {
  uint32_t i = 0, j = 0;
  double k = 0.0;
  double r_start = 0.0;
  double velocity = 0.0;
};

/// Uniform external field: U = -q E·r (forces only; the energy of a
/// periodic system in a uniform field is gauge-dependent, so we charge the
/// work to the `external` bucket via the force path only).
struct ExternalField {
  Vec3 field;  ///< kcal/mol/Å/e
};

void compute_position_restraints(std::span<const PositionRestraint> restraints,
                                 std::span<const Vec3> pos, const Box& box,
                                 ForceResult& out);

void compute_distance_restraints(std::span<const DistanceRestraint> restraints,
                                 std::span<const Vec3> pos, const Box& box,
                                 ForceResult& out);

/// `time` is the elapsed simulation time in internal units.
/// Returns the instantaneous spring extensions (one per spring) so steered-MD
/// drivers can record work; forces/energies accumulate into `out`.
std::vector<double> compute_steered_springs(
    std::span<const SteeredSpring> springs, std::span<const Vec3> pos,
    const Box& box, double time, ForceResult& out);

/// Field force and energy on each of `atoms` (uncharged atoms skipped).
void compute_external_field(const ExternalField& field,
                            std::span<const double> charges,
                            std::span<const Vec3> pos,
                            std::span<const uint32_t> atoms, ForceResult& out);

}  // namespace antmd::ff
