#include "ff/energy.hpp"

#include <sstream>

namespace antmd {

std::string EnergyBreakdown::summary() const {
  std::ostringstream os;
  os << "total=" << total() << " bond=" << bond.value()
     << " angle=" << angle.value() << " dihedral=" << dihedral.value()
     << " vdw=" << vdw.value() << " coul_real=" << coulomb_real.value()
     << " coul_k=" << coulomb_kspace.value()
     << " coul_self=" << coulomb_self.value() << " 1-4=" << pair14.value()
     << " restraint=" << restraint.value()
     << " external=" << external.value();
  return os.str();
}

void PartialSums::prepare(size_t lanes, size_t n_atoms, size_t slots) {
  if (!clean) {
    for (auto& lane : lane_forces) lane.clear();
  }
  if (lane_forces.size() != lanes) lane_forces.resize(lanes);
  for (auto& lane : lane_forces) {
    if (lane.size() != n_atoms) lane.resize(n_atoms);  // resize zero-fills
  }
  slot_energy.assign(slots, EnergyBreakdown{});
  slot_virial.assign(slots, Mat3{});
  clean = false;
}

void PartialSums::reduce(ForceResult& out) {
  for (auto& lane : lane_forces) lane.drain_into(out.forces);
  for (size_t s = 0; s < slot_energy.size(); ++s) {
    out.energy.merge(slot_energy[s]);
    out.virial += slot_virial[s];
  }
  clean = true;
}

}  // namespace antmd
