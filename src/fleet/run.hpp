// One tenant of the fleet scheduler: its spec, lifecycle phase, public
// status record, and the supervised engine driver the scheduler advances.
//
// A RunSpec is a complete, self-contained recipe — synthetic system, engine
// choice (host md::Simulation or modeled runtime::MachineSimulation),
// integration parameters, supervision limits and an optional per-run fault
// schedule.  Because every builder is deterministic given the seed, a spec
// can be re-materialized at any time: that is what makes checkpoint-backed
// eviction cheap (drop the engine, keep the spec + a v2 checkpoint) and
// what makes rehydration bit-identical (rebuild from the spec, then restore
// the checkpoint, exactly like a supervisor restart).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include <optional>

#include "ff/forcefield.hpp"
#include "md/simulation.hpp"
#include "obs/profile.hpp"
#include "resilience/supervisor.hpp"
#include "topo/builders.hpp"
#include "util/serialize.hpp"
#include "util/task_graph.hpp"

namespace antmd::fleet {

/// Lifecycle of one run inside the scheduler.
///
///   kQueued ----> kRunning ----> kCompleted
///      ^             |    \----> kQuarantined   (recovery exhausted)
///      |             v
///      +--------- kEvicted                      (checkpointed to disk)
///
///   kRejected is terminal at admission time (backpressure / budget).
enum class RunPhase {
  kQueued,       ///< admitted, waiting for an active slot
  kRunning,      ///< engine materialized, receiving time slices
  kEvicted,      ///< engine freed, state parked in a v2 checkpoint
  kQuarantined,  ///< supervisor escalated; siblings unaffected
  kCompleted,    ///< delivered every requested step
  kRejected,     ///< admission control refused it
};

[[nodiscard]] const char* run_phase_name(RunPhase phase);
/// True for phases the scheduler will never advance again.
[[nodiscard]] bool run_phase_terminal(RunPhase phase);

/// Complete recipe for one fleet tenant.  Field defaults are a small,
/// fast LJ run so manifests only state what differs.
struct RunSpec {
  std::string name;
  /// Synthetic system: ljfluid | water | polymer | dimer | bilayer.
  std::string system = "ljfluid";
  /// Builder size argument (atoms, molecules, lipids — builder-specific).
  size_t size = 125;
  uint64_t seed = 1;
  double density = 0.021;        ///< ljfluid only
  std::string water_model = "rigid3";  ///< water only
  size_t chain_length = 20;      ///< polymer only
  double separation = 5.0;       ///< dimer only

  /// Engine: "host" (md::Simulation) or "machine"
  /// (runtime::MachineSimulation on an N×N×N modeled torus).
  std::string engine = "host";
  int nodes = 2;  ///< machine engine: torus edge length

  uint64_t steps = 100;  ///< total steps the fleet owes this run
  double dt_fs = 1.0;
  double temperature_k = 300.0;
  /// none | berendsen | langevin | nosehoover
  std::string thermostat = "langevin";
  double gamma_per_ps = 5.0;
  double cutoff = 6.0;
  /// none | cutoff | gse
  std::string electrostatics = "none";

  /// Fair-share weight (>= 1): a priority-2 run receives twice the slices
  /// of a priority-1 sibling under contention.
  int priority = 1;

  /// Optional fault schedule, fault::parse_fault_plan syntax
  /// ("kind[:fire_after[:count[:payload]]]").  Armed in this run's private
  /// scope: siblings never observe it.
  std::string fault;

  // Supervision (resilience::SupervisorConfig subset).
  int max_retries = 3;
  int snapshot_interval = 64;
  size_t snapshot_ring_bytes = 0;
  double watchdog_ms = 0.0;  ///< machine engine only; 0 disables

  // SDC auditing (resilience::AuditConfig subset).  audit_interval = 0
  // leaves auditing off; > 0 audits every N steps and attaches a static-
  // data scrubber covering the run's spline tables, topology arrays and
  // exclusion list.  audit_max_recoveries is the per-run corruption
  // budget: a run that keeps flipping bits is quarantined (escalation),
  // not retried forever — repeat corruption points at failing hardware.
  int audit_interval = 0;
  int audit_shadow_window = 2;   ///< 0 = replay the full audit interval
  int scrub_interval = 0;        ///< 0 = scrub at every audit
  int audit_max_recoveries = 3;  ///< corruption episodes before quarantine

  /// Throws ConfigError on an unbuildable spec (admission-time check).
  void validate() const;
};

/// Order-independent digest of the full dynamic state (positions,
/// velocities, box, time, step), for bit-identity assertions after a run's
/// engine is gone.  FNV-1a over the exact bytes: two states digest equal
/// iff the trajectories are bit-identical.
[[nodiscard]] uint64_t state_digest(const State& state);

/// Public, copyable status record for one run (also what the status file
/// serializes).  Counters aggregate over the run's whole life, including
/// across evictions.
struct RunStatus {
  uint64_t id = 0;
  std::string name;
  RunPhase phase = RunPhase::kQueued;
  std::string engine;
  int priority = 1;
  uint64_t steps_done = 0;
  uint64_t steps_target = 0;
  uint64_t slices = 0;
  uint64_t faults = 0;
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
  uint64_t restarts = 0;
  uint64_t node_remaps = 0;
  uint64_t watchdog_trips = 0;
  uint64_t corruptions = 0;  ///< silent-corruption episodes detected
  uint64_t evictions = 0;
  double recovery_modeled_s = 0.0;
  /// Modeled resident footprint while running (0 once the engine is gone).
  size_t resident_bytes = 0;
  /// Why the run was quarantined / rejected; empty otherwise.
  std::string detail;
  /// Digest + observables of the terminal state (completed runs only).
  uint64_t final_digest = 0;
  double final_potential_energy = 0.0;
  double final_temperature = 0.0;
  /// Attribution-profiler rollup (machine engine under
  /// obs::profiling_enabled only).  Modeled network seconds per message
  /// class, whole-life like the counters above: survives eviction because
  /// each activation's per-run collector is folded onto counters_base.
  bool has_profile = false;
  std::array<double, obs::kMessageClassCount> profile_net_s{};
  double profile_net_total_s = 0.0;
};

/// One run's engine under supervision.  A Driver owns the whole
/// materialized stack — SystemSpec, ForceField, engine, Supervisor — so
/// destroying it releases every byte the run held.  materialize() builds
/// it: construct over the system, build the engine on field(), install().
class Driver {
 public:
  Driver(SystemSpec system, const ff::NonbondedModel& model)
      : system_(std::move(system)), field_(system_.topology, model) {}
  // The field, scrubber and engine hold addresses of earlier members.
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  [[nodiscard]] ForceField& field() { return field_; }
  [[nodiscard]] const SystemSpec& system() const { return system_; }

  /// Puts `sim` under a Supervisor; with auditing on, also attaches a
  /// scrubber over the force field and topology.  `profile` is the
  /// engine's private attribution collector, if it was given one.
  void install(std::unique_ptr<md::Simulation> sim,
               resilience::SupervisorConfig supervision,
               std::unique_ptr<obs::Profile> profile);

  /// Advances up to `steps` under supervision; the report says what
  /// actually happened (report.completed == false means escalation).
  resilience::RecoveryReport advance(size_t steps) {
    return supervisor_->run(steps);
  }

  [[nodiscard]] const State& state() const { return sim_->state(); }
  [[nodiscard]] size_t atom_count() const {
    return system_.topology.atom_count();
  }
  [[nodiscard]] double potential_energy() const {
    return sim_->potential_energy();
  }
  [[nodiscard]] double temperature() const { return sim_->temperature(); }
  /// Bytes resident in the supervisor's snapshot ring right now.
  [[nodiscard]] size_t snapshot_bytes() const {
    return supervisor_->snapshot_bytes();
  }
  /// The engine as a checkpoint section source/sink (eviction/rehydration).
  [[nodiscard]] util::Checkpointable& checkpointable() { return *sim_; }
  /// This run's private attribution collector, or nullptr when the engine
  /// has none (host engine, or profiling disabled at materialization).
  /// The scheduler folds it into obs::Profile::global() before the driver
  /// is destroyed, so fleet-wide attribution survives eviction.
  [[nodiscard]] const obs::Profile* profile() const { return profile_.get(); }

 private:
  SystemSpec system_;
  ForceField field_;
  /// Declared before sim_ so the sim's profile pointer never dangles.
  std::unique_ptr<obs::Profile> profile_;
  /// Declared before supervisor_: the supervisor's auditor holds a
  /// pointer to the scrubber for the supervisor's whole lifetime.
  resilience::Scrubber scrubber_;
  std::unique_ptr<md::Simulation> sim_;
  std::optional<resilience::Supervisor> supervisor_;
};

/// Builds the full engine stack for a spec.  `shared_runtime` (may be
/// null) and `threads` feed the engine's ExecutionConfig so every fleet
/// engine multiplexes over one worker pool instead of spawning its own.
/// `checkpoint_path` ("" = none) becomes the supervisor's on-disk mirror.
/// Throws ConfigError on a bad spec.
[[nodiscard]] std::unique_ptr<Driver> materialize(
    const RunSpec& spec, std::shared_ptr<util::TaskRuntime> shared_runtime,
    size_t threads, const std::string& checkpoint_path);

/// Modeled resident footprint of a spec once materialized: state + force
/// field working set, linear in atoms, plus the snapshot ring it may grow.
/// Used by admission control before the engine exists.
[[nodiscard]] size_t estimate_resident_bytes(const RunSpec& spec);

/// Atom count the spec's builder would produce (admission-time estimate;
/// exact, because builders are deterministic).
[[nodiscard]] size_t estimate_atom_count(const RunSpec& spec);

}  // namespace antmd::fleet
