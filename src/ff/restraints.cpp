#include "ff/restraints.hpp"

#include <cmath>

namespace antmd::ff {

void compute_position_restraints(std::span<const PositionRestraint> restraints,
                                 std::span<const Vec3> pos, const Box& box,
                                 ForceResult& out) {
  for (const auto& r : restraints) {
    Vec3 d = box.min_image(pos[r.atom], r.center);
    double dist = norm(d);
    double excess = dist - r.flat_radius;
    if (excess <= 0.0 || dist < 1e-12) continue;
    // U = k excess²; force = -2 k excess * d/|d|
    Vec3 f = (-2.0 * r.k * excess / dist) * d;
    out.forces.add(r.atom, f);
    out.energy.restraint.add(r.k * excess * excess);
  }
}

void compute_distance_restraints(std::span<const DistanceRestraint> restraints,
                                 std::span<const Vec3> pos, const Box& box,
                                 ForceResult& out) {
  for (const auto& r : restraints) {
    Vec3 d = box.min_image(pos[r.i], pos[r.j]);
    double dist = norm(d);
    double dev = dist - r.r0;
    double excess = 0.0;
    if (dev > r.flat_half_width) excess = dev - r.flat_half_width;
    else if (dev < -r.flat_half_width) excess = dev + r.flat_half_width;
    if (excess == 0.0 || dist < 1e-12) continue;
    Vec3 f = (-2.0 * r.k * excess / dist) * d;  // on atom i
    out.forces.add_pair(r.i, r.j, f);
    out.energy.restraint.add(r.k * excess * excess);
    out.virial += outer(d, f);
  }
}

std::vector<double> compute_steered_springs(
    std::span<const SteeredSpring> springs, std::span<const Vec3> pos,
    const Box& box, double time, ForceResult& out) {
  std::vector<double> extensions;
  extensions.reserve(springs.size());
  for (const auto& s : springs) {
    Vec3 d = box.min_image(pos[s.i], pos[s.j]);
    double dist = norm(d);
    double target = s.r_start + s.velocity * time;
    double dev = dist - target;
    extensions.push_back(dev);
    if (dist < 1e-12) continue;
    Vec3 f = (-2.0 * s.k * dev / dist) * d;  // on atom i
    out.forces.add_pair(s.i, s.j, f);
    out.energy.restraint.add(s.k * dev * dev);
    out.virial += outer(d, f);
  }
  return extensions;
}

void compute_external_field(const ExternalField& field,
                            std::span<const double> charges,
                            std::span<const Vec3> pos,
                            std::span<const uint32_t> atoms, ForceResult& out) {
  for (uint32_t i : atoms) {
    if (charges[i] == 0.0) continue;
    out.forces.add(i, charges[i] * field.field);
    // Energy -q E·r (reported for diagnostics; gauge-dependent under PBC).
    out.energy.external.add(-charges[i] * dot(field.field, pos[i]));
  }
}

}  // namespace antmd::ff
