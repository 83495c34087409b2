#include "fleet/run.hpp"

#include <cstring>
#include <optional>
#include <utility>

#include "ff/forcefield.hpp"
#include "machine/config.hpp"
#include "md/builder.hpp"
#include "md/simulation.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"

namespace antmd::fleet {

const char* run_phase_name(RunPhase phase) {
  switch (phase) {
    case RunPhase::kQueued:
      return "queued";
    case RunPhase::kRunning:
      return "running";
    case RunPhase::kEvicted:
      return "evicted";
    case RunPhase::kQuarantined:
      return "quarantined";
    case RunPhase::kCompleted:
      return "completed";
    case RunPhase::kRejected:
      return "rejected";
  }
  return "unknown";
}

bool run_phase_terminal(RunPhase phase) {
  return phase == RunPhase::kQuarantined || phase == RunPhase::kCompleted ||
         phase == RunPhase::kRejected;
}

void RunSpec::validate() const {
  if (name.empty()) throw ConfigError("run spec needs a name");
  if (steps == 0) throw ConfigError("run '" + name + "': steps must be >= 1");
  if (priority < 1) {
    throw ConfigError("run '" + name + "': priority must be >= 1");
  }
  if (engine != "host" && engine != "machine") {
    throw ConfigError("run '" + name + "': unknown engine '" + engine +
                      "' (host | machine)");
  }
  if (engine == "machine" && nodes < 1) {
    throw ConfigError("run '" + name + "': nodes must be >= 1");
  }
  if (system != "ljfluid" && system != "water" && system != "polymer" &&
      system != "dimer" && system != "bilayer") {
    throw ConfigError("run '" + name + "': unknown system '" + system + "'");
  }
  if (max_retries < 1) {
    throw ConfigError("run '" + name + "': max_retries must be >= 1");
  }
  if (snapshot_interval < 1) {
    throw ConfigError("run '" + name + "': snapshot_interval must be >= 1");
  }
  resilience::AuditConfig audit;
  audit.interval = audit_interval;
  audit.shadow_window = audit_shadow_window;
  audit.scrub_interval = scrub_interval;
  audit.max_recoveries = audit_max_recoveries;
  try {
    audit.validate();
  } catch (const ConfigError& e) {
    throw ConfigError("run '" + name + "': " + e.what());
  }
}

namespace {

uint64_t fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

SystemSpec build_system_spec(const RunSpec& spec) {
  if (spec.system == "ljfluid") {
    return build_lj_fluid(spec.size, spec.density, spec.seed);
  }
  if (spec.system == "water") {
    WaterModel wm = WaterModel::kRigid3Site;
    if (spec.water_model == "flexible3") wm = WaterModel::kFlexible3Site;
    else if (spec.water_model == "rigid4") wm = WaterModel::kRigid4Site;
    else if (spec.water_model != "rigid3") {
      throw ConfigError("run '" + spec.name + "': unknown water_model '" +
                        spec.water_model + "'");
    }
    return build_water_box(spec.size, wm, spec.seed);
  }
  if (spec.system == "polymer") {
    return build_polymer_in_solvent(spec.chain_length, spec.size, spec.seed);
  }
  if (spec.system == "dimer") {
    return build_dimer_in_solvent(spec.size, spec.separation, spec.seed);
  }
  if (spec.system == "bilayer") {
    return build_lipid_bilayer(spec.size, 3, spec.seed);
  }
  throw ConfigError("run '" + spec.name + "': unknown system '" + spec.system +
                    "'");
}

ff::NonbondedModel build_model(const RunSpec& spec, const SystemSpec& system) {
  ff::NonbondedModel model;
  model.cutoff = spec.cutoff;
  if (spec.electrostatics == "none") {
    model.electrostatics = ff::Electrostatics::kNone;
  } else if (spec.electrostatics == "cutoff") {
    model.electrostatics = ff::Electrostatics::kReactionCutoff;
  } else if (spec.electrostatics == "gse") {
    model.electrostatics = ff::Electrostatics::kEwaldReal;
    model.ewald_beta = 0.4;
  } else {
    throw ConfigError("run '" + spec.name + "': unknown electrostatics '" +
                      spec.electrostatics + "'");
  }
  // Electrostatics on an uncharged system is meaningless; drop it so the
  // manifest default can stay "none"-agnostic across systems.
  bool charged = false;
  for (double q : system.topology.charges()) {
    if (q != 0.0) {
      charged = true;
      break;
    }
  }
  if (!charged) model.electrostatics = ff::Electrostatics::kNone;
  return model;
}

md::ThermostatConfig build_thermostat(const RunSpec& spec) {
  md::ThermostatConfig t;
  t.temperature_k = spec.temperature_k;
  t.gamma_per_ps = spec.gamma_per_ps;
  if (spec.thermostat == "none") t.kind = md::ThermostatKind::kNone;
  else if (spec.thermostat == "berendsen") {
    t.kind = md::ThermostatKind::kBerendsen;
  } else if (spec.thermostat == "langevin") {
    t.kind = md::ThermostatKind::kLangevin;
  } else if (spec.thermostat == "nosehoover") {
    t.kind = md::ThermostatKind::kNoseHoover;
  } else {
    throw ConfigError("run '" + spec.name + "': unknown thermostat '" +
                      spec.thermostat + "'");
  }
  return t;
}

resilience::SupervisorConfig build_supervision(
    const RunSpec& spec, const std::string& checkpoint_path) {
  resilience::SupervisorConfig sup;
  sup.max_retries = spec.max_retries;
  sup.snapshot_interval = spec.snapshot_interval;
  sup.snapshot_ring_bytes = spec.snapshot_ring_bytes;
  sup.checkpoint_path = checkpoint_path;
  sup.watchdog_ms = spec.watchdog_ms;
  sup.audit.interval = spec.audit_interval;
  sup.audit.shadow_window = spec.audit_shadow_window;
  sup.audit.scrub_interval = spec.scrub_interval;
  sup.audit.max_recoveries = spec.audit_max_recoveries;
  return sup;
}

/// Owns one run's whole materialized stack in dependency order: the
/// SystemSpec (topology + coordinates), the ForceField built on its
/// topology, the engine built on the field, and the Supervisor wrapping
/// the engine.  Destruction releases everything the run held.
template <md::EngineApi Sim>
class EngineDriver final : public Driver {
 public:
  EngineDriver(SystemSpec system, const ff::NonbondedModel& model)
      : system_(std::move(system)), field_(system_.topology, model) {}

  [[nodiscard]] ForceField& field() { return field_; }
  [[nodiscard]] const SystemSpec& system() const { return system_; }

  void install(std::unique_ptr<Sim> sim,
               resilience::SupervisorConfig supervision) {
    sim_ = std::move(sim);
    // Engines that support profile routing (machine) get a private
    // collector, so multiplexed tenants never mix their attribution.
    // Checked at materialization: flipping profiling mid-fleet does not
    // retroactively create collectors.
    if constexpr (requires { sim_->set_profile(profile_.get()); }) {
      if (obs::profiling_enabled()) {
        profile_ = std::make_unique<obs::Profile>();
        sim_->set_profile(profile_.get());
      }
    }
    const bool audit = supervision.audit.interval > 0;
    supervisor_.emplace(*sim_, std::move(supervision));
    if (audit) {
      // Golden CRCs are captured here, at materialization, before any
      // per-run bit-flip plan can fire: the scrubber covers the force
      // field (packed spline tables + flattened exclusion list) and the
      // topology arrays the engine reads every step.
      scrubber_.add_object(field_);
      scrubber_.add_object(system_.topology);
      supervisor_->enable_audit(&scrubber_);
    }
  }

  resilience::RecoveryReport advance(size_t steps) override {
    return supervisor_->run(steps);
  }
  [[nodiscard]] const State& state() const override { return sim_->state(); }
  [[nodiscard]] size_t atom_count() const override {
    return system_.topology.atom_count();
  }
  [[nodiscard]] double potential_energy() const override {
    return sim_->potential_energy();
  }
  [[nodiscard]] double temperature() const override {
    return sim_->temperature();
  }
  [[nodiscard]] size_t snapshot_bytes() const override {
    return supervisor_->snapshot_bytes();
  }
  [[nodiscard]] util::Checkpointable& checkpointable() override {
    return *sim_;
  }
  [[nodiscard]] const obs::Profile* profile() const override {
    return profile_.get();
  }

 private:
  SystemSpec system_;
  ForceField field_;
  /// Declared before sim_ so the sim's profile pointer never dangles.
  std::unique_ptr<obs::Profile> profile_;
  /// Declared before supervisor_: the supervisor's auditor holds a
  /// pointer to the scrubber for the supervisor's whole lifetime.
  resilience::Scrubber scrubber_;
  std::unique_ptr<Sim> sim_;
  std::optional<resilience::Supervisor<Sim>> supervisor_;
};

}  // namespace

uint64_t state_digest(const State& state) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(state.positions.data(), state.positions.size() * sizeof(Vec3), h);
  h = fnv1a(state.velocities.data(), state.velocities.size() * sizeof(Vec3),
            h);
  const Vec3 edges = state.box.edges();
  h = fnv1a(&edges, sizeof(edges), h);
  h = fnv1a(&state.time, sizeof(state.time), h);
  h = fnv1a(&state.step, sizeof(state.step), h);
  return h;
}

std::unique_ptr<Driver> materialize(
    const RunSpec& spec, std::shared_ptr<util::TaskRuntime> shared_runtime,
    size_t threads, const std::string& checkpoint_path) {
  spec.validate();
  SystemSpec system = build_system_spec(spec);
  const ff::NonbondedModel model = build_model(spec, system);
  const md::ThermostatConfig thermostat = build_thermostat(spec);

  ExecutionConfig exec;
  exec.threads = threads ? threads : 1;
  exec.shared_runtime = std::move(shared_runtime);

  if (spec.engine == "host") {
    auto driver = std::make_unique<EngineDriver<md::Simulation>>(
        std::move(system), model);
    md::SimulationBuilder builder;
    builder.dt_fs(spec.dt_fs)
        .thermostat(thermostat)
        .init_temperature(spec.temperature_k)
        .velocity_seed(spec.seed)
        .execution(exec);
    driver->install(builder.build_unique(driver->field(),
                                         driver->system().positions,
                                         driver->system().box),
                    build_supervision(spec, checkpoint_path));
    return driver;
  }

  auto driver = std::make_unique<EngineDriver<runtime::MachineSimulation>>(
      std::move(system), model);
  runtime::MachineSimConfig config;
  config.dt_fs = spec.dt_fs;
  config.thermostat = thermostat;
  config.init_temperature_k = spec.temperature_k;
  config.velocity_seed = spec.seed;
  config.execution = exec;
  driver->install(std::make_unique<runtime::MachineSimulation>(
                      driver->field(),
                      machine::anton_with_torus(spec.nodes, spec.nodes,
                                                spec.nodes),
                      driver->system().positions, driver->system().box,
                      config),
                  build_supervision(spec, checkpoint_path));
  return driver;
}

size_t estimate_atom_count(const RunSpec& spec) {
  // Builders are deterministic and O(atoms); building the topology once at
  // admission time is the exact answer, not an approximation.
  return build_system_spec(spec).topology.atom_count();
}

size_t estimate_resident_bytes(const RunSpec& spec) {
  const size_t atoms = estimate_atom_count(spec);
  // Engine working set (state, forces, tables, neighbor/cluster lists) is
  // linear in atoms; 768 B/atom brackets the host and machine engines
  // across the synthetic systems, which is the fidelity admission needs.
  const size_t engine = atoms * 768;
  // Snapshot ring: the explicit byte budget when set, else the default
  // ring depth times one serialized state (~72 B/atom + fixed extras).
  const size_t per_snapshot = atoms * 72 + 4096;
  const size_t ring = spec.snapshot_ring_bytes
                          ? spec.snapshot_ring_bytes
                          : resilience::SupervisorConfig{}.snapshot_ring_depth *
                                per_snapshot;
  return engine + ring;
}

}  // namespace antmd::fleet
