// SimulationBuilder: fluent construction of md::Simulation.
//
// Preferred over filling a SimulationConfig and calling the 4-argument
// Simulation constructor by hand (which stays available but is considered
// legacy in docs/examples):
//
//   md::Simulation sim = md::SimulationBuilder()
//                            .dt_fs(2.0)
//                            .neighbor_skin(1.0)
//                            .langevin(300.0, 5.0)
//                            .threads(4)
//                            .build(field, spec.positions, spec.box);
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "md/simulation.hpp"

namespace antmd::md {

class SimulationBuilder {
 public:
  SimulationBuilder() = default;
  /// Starts from an existing config (e.g. a method's stored defaults).
  explicit SimulationBuilder(SimulationConfig base) : config_(base) {}

  SimulationBuilder& dt_fs(double v) { config_.dt_fs = v; return *this; }
  SimulationBuilder& kspace_interval(int v) {
    config_.kspace_interval = v; return *this;
  }
  SimulationBuilder& respa_inner(int v) {
    config_.respa_inner = v; return *this;
  }
  SimulationBuilder& neighbor_skin(double v) {
    config_.neighbor_skin = v; return *this;
  }
  SimulationBuilder& com_removal_interval(int v) {
    config_.com_removal_interval = v; return *this;
  }
  SimulationBuilder& constraint_algorithm(ConstraintAlgorithm v) {
    config_.constraint_algorithm = v; return *this;
  }
  SimulationBuilder& thermostat(const ThermostatConfig& v) {
    config_.thermostat = v; return *this;
  }
  /// Langevin bath shortcut; also seeds velocities at the same temperature.
  SimulationBuilder& langevin(double temperature_k, double gamma_per_ps) {
    config_.thermostat.kind = ThermostatKind::kLangevin;
    config_.thermostat.temperature_k = temperature_k;
    config_.thermostat.gamma_per_ps = gamma_per_ps;
    config_.init_temperature_k = temperature_k;
    return *this;
  }
  SimulationBuilder& barostat(const BarostatConfig& v) {
    config_.barostat = v; return *this;
  }
  SimulationBuilder& init_temperature(double temperature_k) {
    config_.init_temperature_k = temperature_k; return *this;
  }
  SimulationBuilder& velocity_seed(uint64_t seed) {
    config_.velocity_seed = seed; return *this;
  }
  SimulationBuilder& nonbonded_kernel(ff::NonbondedKernel kernel) {
    config_.nonbonded_kernel = kernel; return *this;
  }
  /// Host threads for the parallel execution layer (1 = serial, 0 = auto).
  SimulationBuilder& threads(size_t n) {
    config_.execution.threads = n; return *this;
  }
  SimulationBuilder& execution(const ExecutionConfig& v) {
    config_.execution = v; return *this;
  }

  [[nodiscard]] const SimulationConfig& config() const { return config_; }

  /// Builds in place (guaranteed copy elision: the Simulation is
  /// constructed directly in the caller's storage, so the barostat's
  /// self-referential callback stays valid).
  [[nodiscard]] Simulation build(ForceField& ff, std::vector<Vec3> positions,
                                 Box box) const {
    config_.validate();  // fail before touching the force field
    return Simulation(ff, std::move(positions), box, config_);
  }

  /// Heap variant for ensembles (replica-exchange ladders).
  [[nodiscard]] std::unique_ptr<Simulation> build_unique(
      ForceField& ff, std::vector<Vec3> positions, Box box) const {
    config_.validate();
    return std::make_unique<Simulation>(ff, std::move(positions), box,
                                        config_);
  }

 private:
  SimulationConfig config_;
};

}  // namespace antmd::md
