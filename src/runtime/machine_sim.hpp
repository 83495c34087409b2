// MachineSimulation: MD on the modeled Anton-class machine.
//
// The dynamics are md::Simulation's — the one integrator — and only the
// force evaluation differs: MachineForces partitions it across the modeled
// nodes through the DistributedEngine (fixed-point wire format) and charges
// every evaluation to the timing model and the reliable transport, so each
// step also produces a modeled StepBreakdown.  Trajectories are
// bit-identical for any machine size — the determinism experiment (T5) —
// and the accumulated modeled time drives the performance experiments (T1,
// F1, T2, F2, F5, F7).
#pragma once

#include <memory>
#include <vector>

#include "machine/contention.hpp"
#include "machine/timing.hpp"
#include "machine/transport.hpp"
#include "md/simulation.hpp"
#include "obs/profile.hpp"
#include "runtime/engine.hpp"
#include "util/serialize.hpp"

namespace antmd::runtime {

/// The integrator's settings on the machine's defaults — 2.5 fs steps,
/// reciprocal forces every second step, no COM removal — plus the
/// transport.  `execution` sizes the pool the node partitions and neighbor
/// rebuilds share.
struct MachineSimConfig : md::SimulationConfig {
  MachineSimConfig() {
    dt_fs = 2.5;
    kspace_interval = 2;
    com_removal_interval = 0;
  }

  machine::TransportConfig transport;

  /// md::SimulationConfig::validate() plus what the machine does not
  /// model: respa_inner > 1 and any barostat throw ConfigError.  The
  /// machine merges the virial per node, so a virial-driven barostat would
  /// break bit-identity across node counts.
  void validate() const;
};

/// The machine's force provider: the DistributedEngine evaluates every term
/// across the modeled nodes, and each evaluation except a restore's is
/// charged to the timing model and the reliable transport.  Its neighbor
/// list and engine share one util::TaskRuntime.
class MachineForces final : public md::ForceProvider {
 public:
  MachineForces(ForceField& ff, const machine::MachineConfig& machine,
                const MachineSimConfig& config);

  void init(State& state, const md::SimulationConfig& config) override;
  void rebuild(State& state) override;
  void compute(State& state, const md::ForceRequest& request,
               ForceResult& out, ForceResult& kspace_cache) override;
  [[nodiscard]] const md::NeighborList& neighbor_list() const override {
    return nlist_;
  }
  [[nodiscard]] util::TaskRuntime* runtime() const override {
    return engine_.runtime().get();
  }

 private:
  friend class MachineSimulation;

  void charge(machine::StepWork work);
  void publish_model_metrics(const machine::StepWork& work,
                             const machine::NetworkAttribution* attr);
  void feed_profile(const machine::NetworkAttribution& attr);
  void redistribute(const State& state) {
    if (nlist_.cluster_mode()) {
      engine_.redistribute(state.positions, state.box, {}, &nlist_.clusters());
    } else {
      engine_.redistribute(state.positions, state.box, nlist_.pairs(),
                           nullptr);
    }
  }
  [[nodiscard]] double mean_step_time_s() const {
    return steps_timed_ ? modeled_time_s_ / static_cast<double>(steps_timed_)
                        : 0.0;
  }
  [[nodiscard]] double ns_per_day() const;

  machine::TimingModel timing_;
  machine::ReliableTransport transport_;
  machine::StepDelivery last_delivery_;
  DistributedEngine engine_;
  md::NeighborList nlist_;
  const md::SimulationConfig* live_ = nullptr;  ///< the integrator's config
  machine::StepBreakdown last_breakdown_;
  machine::StepBreakdown accumulated_;
  double modeled_time_s_ = 0.0;
  uint64_t steps_timed_ = 0;
  size_t pending_tempering_decisions_ = 0;
  // Telemetry-only state: built lazily the first time metrics are enabled;
  // never read by the physics, so it cannot perturb trajectories.
  std::unique_ptr<machine::LinkContentionModel> contention_model_;
  double torus_mean_hops_ = -1.0;  ///< cached, O(nodes²) to compute
  obs::Profile* profile_ = nullptr;   ///< nullptr = obs::Profile::global()
  std::vector<double> link_scratch_;  ///< per-link bytes, profiling only
  bool link_labels_fed_ = false;      ///< link labels built once per sink
};

/// md::Simulation driven by MachineForces, plus the machine's API:
/// modeled-time breakdowns, the transport, node remapping and profile
/// routing.
class MachineSimulation : public md::Simulation {
 public:
  MachineSimulation(ForceField& ff, machine::MachineConfig machine,
                    std::vector<Vec3> positions, Box box,
                    MachineSimConfig config);

  // --- modeled performance -----------------------------------------------------
  [[nodiscard]] const machine::StepBreakdown& last_breakdown() const {
    return machine_.last_breakdown_;
  }
  /// Sum of modeled step times since construction (seconds).
  [[nodiscard]] double modeled_time_s() const {
    return machine_.modeled_time_s_;
  }
  [[nodiscard]] double mean_step_time_s() const {
    return machine_.mean_step_time_s();
  }
  /// Phase sums over all steps so far.
  [[nodiscard]] const machine::StepBreakdown& accumulated() const {
    return machine_.accumulated_;
  }
  /// Modeled simulation rate in ns/day at the configured timestep.
  [[nodiscard]] double ns_per_day() const { return machine_.ns_per_day(); }

  [[nodiscard]] const DistributedEngine& engine() const {
    return machine_.engine_;
  }
  [[nodiscard]] DistributedEngine& mutable_engine() {
    return machine_.engine_;
  }
  [[nodiscard]] machine::TimingModel& timing() { return machine_.timing_; }
  /// Reliability protocol state: retransmit/CRC/link-down counters and the
  /// node-hang handshake the supervisor's watchdog consumes.
  [[nodiscard]] const machine::ReliableTransport& transport() const {
    return machine_.transport_;
  }
  [[nodiscard]] machine::ReliableTransport& mutable_transport() {
    return machine_.transport_;
  }
  /// Delivery record of the most recent force evaluation.
  [[nodiscard]] const machine::StepDelivery& last_delivery() const {
    return machine_.last_delivery_;
  }
  /// Re-runs the node redistribution at the current positions (supervisor
  /// recovery path after marking nodes failed).  Bit-exact; charges no
  /// modeled time, like the restore path.
  void rebuild_distribution() { machine_.redistribute(state()); }

  // --- checkpoint / restart ---------------------------------------------------
  /// The physics part (md::Simulation's, without a barostat block) plus the
  /// modeled-time accumulators and transport state.  Restore rebuilds the
  /// neighbor list, re-runs the node redistribution and recomputes forces
  /// (bit-exact; no modeled time is charged for it).
  void save_checkpoint(util::BinaryWriter& out) const override;
  void restore_checkpoint(util::BinaryReader& in) override;

  /// The determinism-contract prefix of the checkpoint: dynamic state,
  /// timestep, thermostat RNG and the k-space cache.  The SDC auditor
  /// digests this instead of the full blob because the performance
  /// accounting that follows (modeled time, transport counters)
  /// legitimately differs between a live path and a replay: a restore
  /// rebuilds the neighbor list, shifting the rebuild cadence and with it
  /// redistribute costs, without moving the trajectory by a single bit.
  void save_physics_checkpoint(util::BinaryWriter& out) const override {
    write_physics(out, /*barostat_block=*/false);
  }

  /// Marks a tempering/exchange decision in the next step's workload
  /// (cost accounting for sampling methods driven on top of this engine).
  void note_tempering_decision() { ++machine_.pending_tempering_decisions_; }

  /// Routes attribution-profiler feeds to `profile` instead of
  /// obs::Profile::global() (fleet: one collector per run).  nullptr
  /// restores the global sink.  Profiler data only flows while
  /// obs::profiling_enabled(); like all telemetry it never touches the
  /// physics.
  void set_profile(obs::Profile* profile) {
    machine_.profile_ = profile;
    machine_.link_labels_fed_ = false;  // the new sink needs its own labels
  }

 private:
  MachineForces& machine_;
};

}  // namespace antmd::runtime
