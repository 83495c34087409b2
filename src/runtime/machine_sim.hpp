// MachineSimulation: MD on the modeled Anton-class machine.
//
// Functionally it advances the same velocity-Verlet + constraints +
// thermostat sequence as md::Simulation, but forces come from the
// DistributedEngine (partitioned across modeled nodes, fixed-point wire
// format) and every step also produces a modeled StepBreakdown from the
// timing model.  Trajectories are bit-identical for any machine size — the
// determinism experiment (T5) — and the accumulated modeled time drives the
// performance experiments (T1, F1, T2, F2, F5, F7).
#pragma once

#include <memory>
#include <vector>

#include "machine/contention.hpp"
#include "machine/timing.hpp"
#include "machine/transport.hpp"
#include "obs/profile.hpp"
#include "md/constraints.hpp"
#include "md/neighbor.hpp"
#include "md/observer.hpp"
#include "md/state.hpp"
#include "md/thermostat.hpp"
#include "runtime/engine.hpp"
#include "util/serialize.hpp"

namespace antmd::runtime {

struct MachineSimConfig {
  double dt_fs = 2.5;
  int kspace_interval = 2;  ///< RESPA: reciprocal forces every N steps
  double neighbor_skin = 2.0;
  md::ThermostatConfig thermostat;
  md::ConstraintAlgorithm constraint_algorithm =
      md::ConstraintAlgorithm::kShake;
  double init_temperature_k = 300.0;
  uint64_t velocity_seed = 1234;
  int com_removal_interval = 0;
  /// Same knob as md::SimulationConfig::nonbonded_kernel; cluster mode also
  /// switches the timing model to per-tile-lane HTIS accounting.
  ff::NonbondedKernel nonbonded_kernel = ff::NonbondedKernel::kCluster;
  /// Atoms per cluster for the tiled kernel: 4 or 8.
  uint32_t cluster_width = ff::kDefaultClusterWidth;
  EngineOptions engine;
  machine::TransportConfig transport;

  /// Throws ConfigError on the ranges md::SimulationConfig::validate()
  /// checks for the host engine (dt_fs > 0, kspace_interval >= 1,
  /// neighbor_skin >= 0, cluster_width 4 or 8).  Called first thing by the
  /// MachineSimulation constructor.
  void validate() const;
};

class MachineSimulation : public util::Checkpointable {
 public:
  MachineSimulation(ForceField& ff, machine::MachineConfig machine,
                    std::vector<Vec3> positions, Box box,
                    MachineSimConfig config);

  void step();
  void run(size_t n);

  [[nodiscard]] const State& state() const { return state_; }
  /// Direct mutable access to the dynamic state, mirroring
  /// md::Simulation::mutable_state().  External state surgery (replica
  /// exchange, SDC bit-flip injection in tests) goes through here; call
  /// invalidate-style paths or rely on the next step's force evaluation to
  /// pick the change up.
  [[nodiscard]] State& mutable_state() { return state_; }
  [[nodiscard]] const ForceResult& forces() const { return current_; }
  [[nodiscard]] double potential_energy() const {
    return current_.energy.total();
  }
  [[nodiscard]] double kinetic_energy() const {
    return md::kinetic_energy(ff_->topology(), state_);
  }
  [[nodiscard]] double temperature() const {
    return md::temperature(ff_->topology(), state_);
  }

  // --- modeled performance -----------------------------------------------------
  [[nodiscard]] const machine::StepBreakdown& last_breakdown() const {
    return last_breakdown_;
  }
  /// Sum of modeled step times since construction (seconds).
  [[nodiscard]] double modeled_time_s() const { return modeled_time_s_; }
  [[nodiscard]] double mean_step_time_s() const {
    return steps_timed_ ? modeled_time_s_ / static_cast<double>(steps_timed_)
                        : 0.0;
  }
  /// Phase sums over all steps so far.
  [[nodiscard]] const machine::StepBreakdown& accumulated() const {
    return accumulated_;
  }
  /// Modeled simulation rate in ns/day at the configured timestep.
  [[nodiscard]] double ns_per_day() const;

  [[nodiscard]] const DistributedEngine& engine() const { return engine_; }
  [[nodiscard]] DistributedEngine& mutable_engine() { return engine_; }
  [[nodiscard]] machine::TimingModel& timing() { return timing_; }
  /// Reliability protocol state: retransmit/CRC/link-down counters and the
  /// node-hang handshake the supervisor's watchdog consumes.
  [[nodiscard]] const machine::ReliableTransport& transport() const {
    return transport_;
  }
  [[nodiscard]] machine::ReliableTransport& mutable_transport() {
    return transport_;
  }
  /// Delivery record of the most recent force evaluation.
  [[nodiscard]] const machine::StepDelivery& last_delivery() const {
    return last_delivery_;
  }
  /// Re-runs the node redistribution at the current positions (supervisor
  /// recovery path after marking nodes failed).  Bit-exact; charges no
  /// modeled time, like the restore path.
  void rebuild_distribution() {
    engine_.redistribute(state_.positions, state_.box, nlist_.pairs(),
                         cluster_arg());
  }
  [[nodiscard]] ForceField& force_field() { return *ff_; }
  [[nodiscard]] md::Thermostat& thermostat() { return thermostat_; }
  [[nodiscard]] const md::ConstraintSolver& constraints() const {
    return constraints_;
  }

  /// Retargets the outer timestep mid-run (HealthGuard degradation path).
  void set_timestep_fs(double dt_fs);
  [[nodiscard]] double timestep_fs() const { return config_.dt_fs; }

  // --- checkpoint / restart ---------------------------------------------------
  /// Same contract as md::Simulation: dynamic state, timestep, thermostat,
  /// the reciprocal-space cache, plus the modeled-time accumulators.
  /// Restore rebuilds the neighbor list, re-runs the node redistribution and
  /// recomputes forces (bit-exact; no modeled time is charged for it).
  void save_checkpoint(util::BinaryWriter& out) const override;
  void restore_checkpoint(util::BinaryReader& in) override;

  /// The determinism-contract prefix of the checkpoint: dynamic state,
  /// timestep, thermostat RNG and the k-space cache — everything that can
  /// influence future trajectory bits.  The SDC auditor digests this
  /// instead of the full blob because the performance accounting that
  /// follows (modeled time, transport counters) legitimately differs
  /// between a live path and a replay: a restore rebuilds the neighbor
  /// list, shifting the rebuild cadence and with it redistribute costs,
  /// without moving the trajectory by a single bit.
  void save_physics_checkpoint(util::BinaryWriter& out) const;

  /// Marks a tempering/exchange decision in the next step's workload
  /// (cost accounting for sampling methods driven on top of this engine).
  void note_tempering_decision() { ++pending_tempering_decisions_; }

  /// Same step-observation contract as md::Simulation::add_observer.
  void add_observer(md::StepObserver obs, int interval = 1) {
    observers_.add(std::move(obs), interval);
  }

  /// Suspends/resumes step observers (SDC shadow replay: re-executed steps
  /// must not re-fire trajectory writers or metrics samplers).
  void set_observers_enabled(bool enabled) {
    observers_.set_enabled(enabled);
  }

  /// Charges `seconds` of audit work against the last step's breakdown.
  /// Like pair_masked the field is informational — it is never added to
  /// `total`, so audit time cannot masquerade as physics or trip the
  /// supervisor watchdog.
  void charge_audit(double seconds) {
    last_breakdown_.audit += seconds;
    accumulated_.audit += seconds;
  }

  /// Routes attribution-profiler feeds to `profile` instead of
  /// obs::Profile::global() (fleet: one collector per run).  nullptr
  /// restores the global sink.  Profiler data only flows while
  /// obs::profiling_enabled(); like all telemetry it never touches the
  /// physics.
  void set_profile(obs::Profile* profile) {
    profile_ = profile;
    link_labels_fed_ = false;  // the new sink needs its own labels
  }

 private:
  void evaluate_forces(bool kspace_due);
  void notify_observers();
  void publish_model_metrics(const machine::StepWork& work,
                             const machine::NetworkAttribution* attr);
  void feed_profile(const machine::NetworkAttribution& attr);
  /// The engine's cluster-list argument: the live tile list in cluster
  /// mode, null in pair mode.
  [[nodiscard]] const ff::ClusterPairList* cluster_arg() const {
    return nlist_.cluster_mode() ? &nlist_.clusters() : nullptr;
  }

  ForceField* ff_;
  MachineSimConfig config_;
  machine::TimingModel timing_;
  machine::ReliableTransport transport_;
  machine::StepDelivery last_delivery_;
  DistributedEngine engine_;
  State state_;
  double dt_;
  md::NeighborList nlist_;
  md::ConstraintSolver constraints_;
  md::Thermostat thermostat_;
  ForceResult current_;
  ForceResult kspace_cache_;
  std::vector<Vec3> scratch_before_;
  machine::StepBreakdown last_breakdown_;
  machine::StepBreakdown accumulated_;
  double modeled_time_s_ = 0.0;
  uint64_t steps_timed_ = 0;
  size_t pending_tempering_decisions_ = 0;
  md::ObserverList observers_;
  md::WallTimer wall_;
  // Telemetry-only state: built lazily the first time metrics are enabled;
  // never read by the physics, so it cannot perturb trajectories.
  std::unique_ptr<machine::LinkContentionModel> contention_model_;
  double torus_mean_hops_ = -1.0;  ///< cached, O(nodes²) to compute
  obs::Profile* profile_ = nullptr;   ///< nullptr = obs::Profile::global()
  std::vector<double> link_scratch_;  ///< per-link bytes, profiling only
  bool link_labels_fed_ = false;      ///< link labels built once per sink
};

}  // namespace antmd::runtime
