// EngineApi: the step-driver contract generic layers (Supervisor, Auditor,
// HealthGuard, example drivers) constrain on.  md::Simulation satisfies it,
// and so does runtime::MachineSimulation, which is an md::Simulation with
// the machine's force provider; any drift in the surface becomes a compile
// error at the definition, not a template instantiation stack three layers
// deep.
#pragma once

#include <concepts>
#include <cstddef>
#include <utility>

#include "md/observer.hpp"
#include "md/state.hpp"
#include "util/serialize.hpp"

namespace antmd::md {

/// A steppable MD engine: advances state, exposes the energetic summary
/// observers and supervisors read, and checkpoints bit-exactly.
template <typename Sim>
concept EngineApi =
    std::derived_from<Sim, util::Checkpointable> &&
    requires(Sim& s, const Sim& cs, StepObserver obs, size_t n, double dt) {
      s.step();
      s.run(n);
      { cs.state() } -> std::convertible_to<const State&>;
      { cs.potential_energy() } -> std::convertible_to<double>;
      { cs.kinetic_energy() } -> std::convertible_to<double>;
      { cs.temperature() } -> std::convertible_to<double>;
      s.add_observer(std::move(obs), 1);
      s.set_timestep_fs(dt);
    };

}  // namespace antmd::md
