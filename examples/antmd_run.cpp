// antmd_run: config-file-driven simulation driver.
//
// Describes a run in a small `key = value` file and executes it with the
// one integrator (md::Simulation), its forces from the host step graph or
// from the modeled machine, e.g.:
//
//   # water.cfg
//   system       = water        # water | ljfluid | polymer | bilayer | dimer
//   size         = 216          # molecules/atoms (builder-specific)
//   engine       = machine      # host | machine
//   nodes        = 4            # torus edge when engine = machine
//   steps        = 500
//   dt_fs        = 2.0
//   kspace_interval = 2         # default 1 on the host, 2 on the machine
//   respa_inner  = 1            # host only, no barostat; machine rejects > 1
//   barostat     = none         # none | mc | berendsen | semiiso (host only)
//   temperature  = 300
//   thermostat   = langevin     # none | berendsen | langevin | nosehoover
//   electrostatics = gse        # none | cutoff | gse
//   cutoff       = 6.0
//   threads      = 4            # host worker threads (1 = serial, 0 = auto)
//   xyz          = out.xyz      # optional trajectory
//
//   ./antmd_run water.cfg [--threads N]
//       [--checkpoint PATH] [--checkpoint-interval N] [--resume]
//       [--supervise] [--max-retries N] [--watchdog-ms X] [--fault SPEC]
//       [--trace-out trace.json] [--metrics-out metrics.json]
//       [--no-telemetry]
//
// Observability (command line overrides config keys `trace_out`,
// `metrics_out`, `telemetry`):
//   --trace-out PATH       record per-phase spans and write a Chrome
//                          trace_event JSON (load in chrome://tracing or
//                          ui.perfetto.dev)
//   --metrics-out PATH     dump every telemetry counter/gauge/histogram at
//                          exit (.json → JSON, else `name value` text)
//   --no-telemetry         disable all metric collection (telemetry is on
//                          by default; overhead is <2%, see DESIGN.md)
//
// Attribution profiler (config keys `profile`, `profile_out`, `prom_out`;
// machine engine; see DESIGN.md "Attribution & critical path"):
//   --profile              collect per-message-class network attribution,
//                          per-link load histograms and task-graph
//                          critical-path/slack analysis; prints the
//                          human-readable summary at exit.  Trajectories
//                          are bit-identical with profiling on or off.
//   --profile-out PATH     also write the full antmd.profile/v1 JSON
//                          document (implies --profile)
//   --prom-out PATH        write the metrics registry in Prometheus text
//                          exposition format at exit (works with or
//                          without --profile)
//
// Robustness options (command line overrides the matching config keys
// `checkpoint`, `checkpoint_interval`, `resume`; config key `health`):
//   --checkpoint PATH      write an atomic, CRC-verified v2 checkpoint of
//                          the simulation every checkpoint-interval steps,
//                          counted from the step the run starts at
//   --checkpoint-interval N  snapshot cadence in steps (default 200)
//   --resume               restore from --checkpoint before running; when
//                          the primary file fails its CRC the `.bak`
//                          mirror is tried automatically; the run
//                          continues to the configured total `steps`
//   health = off|rollback|throw   what a numerical failure (a health check
//                          violation or a NumericalError) does: off rolls
//                          back at the configured timestep, rollback also
//                          shrinks it by 0.5 (compounding) at each
//                          numerical rollback, throw exits 4 on the first
//
// A run with no --checkpoint, no --supervise and health = off steps the
// simulation directly.  Every other run goes through one
// resilience::Supervisor, which does all checkpointing and recovery.
//
// Fault tolerance (config keys `supervise`, `max_retries`, `watchdog_ms`,
// `report_out`, `fault`; see DESIGN.md "Failure model & recovery"):
//   --supervise            run under resilience::Supervisor: faults are
//                          detected, classified transient/fatal, and
//                          recovered by retry/rollback/restart; unless
//                          health = rollback shrinks the timestep, a
//                          recovered run is bit-identical to the
//                          fault-free run
//   --max-retries N        recovery attempts per failure episode (default 3)
//   --watchdog-ms X        modeled per-step deadline in ms; a hung node
//                          trips it and is remapped (0 = off)
//   --fault SPEC           arm a deterministic fault for the whole run:
//                          kind[:fire_after[:count[:payload]]], e.g.
//                          link_drop:40, packet_corrupt:10:3, node_hang:25:1:5
//                          kinds: io_write_fail io_short_write nan_force
//                                 node_fail link_drop packet_corrupt node_hang
//                                 bit_flip_state bit_flip_table
//                                 bit_flip_checkpoint_buffer
//
// Integrity auditing (config keys `audit_interval`, `audit_shadow_window`,
// `scrub_interval`; requires --supervise; see DESIGN.md "Silent data
// corruption"):
//   --audit-interval N     audit the simulation state every N steps: CRC-64
//                          digests over positions/velocities/forces/
//                          energies, shadow re-execution of the trailing
//                          window, and a scrub of the static tables; a
//                          mismatch is a detected silent corruption the
//                          supervisor rolls back (0 = off)
//   --audit-shadow-window N  steps re-executed per audit (0 = the full
//                          audit interval: complete coverage, ~2x compute
//                          inside the interval)
//   --scrub-interval N     steps between static-data scrubs (0 = at every
//                          audit)
//
// Exit codes: 0 success, 1 unexpected error, 2 configuration/usage,
// 3 I/O failure, 4 numerical failure, 5 recovery exhausted (a
// RecoveryReport is written to `report_out`, default
// antmd_recovery_report.txt).
//
// --threads on the command line overrides the config file.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "ff/forcefield.hpp"
#include "ff/nonbonded_simd.hpp"
#include "io/checkpoint.hpp"
#include "io/config.hpp"
#include "io/trajectory.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "resilience/audit.hpp"
#include "resilience/supervisor.hpp"
#include "runtime/machine_sim.hpp"
#include "topo/builders.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/table.hpp"

using namespace antmd;

namespace {

SystemSpec build_system(const io::RunConfig& cfg) {
  std::string system = cfg.require_string("system");
  auto size = static_cast<size_t>(cfg.get_int("size", 216));
  uint64_t seed = static_cast<uint64_t>(cfg.get_int("seed", 1));
  if (system == "water") {
    std::string model = cfg.get_string("water_model", "rigid3");
    WaterModel wm = WaterModel::kRigid3Site;
    if (model == "flexible3") wm = WaterModel::kFlexible3Site;
    else if (model == "rigid4") wm = WaterModel::kRigid4Site;
    else if (model != "rigid3") {
      throw ConfigError("unknown water_model: " + model);
    }
    return build_water_box(size, wm, seed);
  }
  if (system == "ljfluid") {
    return build_lj_fluid(size, cfg.get_double("density", 0.021), seed);
  }
  if (system == "polymer") {
    return build_polymer_in_solvent(
        static_cast<size_t>(cfg.get_int("chain_length", 20)), size, seed);
  }
  if (system == "bilayer") {
    return build_lipid_bilayer(size,
        static_cast<size_t>(cfg.get_int("water_layers", 3)), seed);
  }
  if (system == "dimer") {
    return build_dimer_in_solvent(size, cfg.get_double("separation", 5.0),
                                  seed);
  }
  throw ConfigError("unknown system: " + system);
}

ff::NonbondedModel build_model(const io::RunConfig& cfg) {
  ff::NonbondedModel model;
  model.cutoff = cfg.get_double("cutoff", 8.0);
  std::string elec = cfg.get_string("electrostatics", "gse");
  if (elec == "none") model.electrostatics = ff::Electrostatics::kNone;
  else if (elec == "cutoff") {
    model.electrostatics = ff::Electrostatics::kReactionCutoff;
  } else if (elec == "gse") {
    model.electrostatics = ff::Electrostatics::kEwaldReal;
    model.ewald_beta = cfg.get_double("ewald_beta", 0.4);
  } else {
    throw ConfigError("unknown electrostatics: " + elec);
  }
  return model;
}

md::ThermostatConfig build_thermostat(const io::RunConfig& cfg) {
  md::ThermostatConfig t;
  t.temperature_k = cfg.get_double("temperature", 300.0);
  t.gamma_per_ps = cfg.get_double("gamma", 5.0);
  t.tau_fs = cfg.get_double("tau_fs", 500.0);
  std::string kind = cfg.get_string("thermostat", "langevin");
  if (kind == "none") t.kind = md::ThermostatKind::kNone;
  else if (kind == "berendsen") t.kind = md::ThermostatKind::kBerendsen;
  else if (kind == "langevin") t.kind = md::ThermostatKind::kLangevin;
  else if (kind == "nosehoover") t.kind = md::ThermostatKind::kNoseHoover;
  else throw ConfigError("unknown thermostat: " + kind);
  return t;
}

/// Execution settings: config key `threads`, with an optional --threads
/// command-line override.
ExecutionConfig build_execution(const io::RunConfig& cfg, int cli_threads) {
  ExecutionConfig exec;
  exec.threads = static_cast<size_t>(cfg.get_int("threads", 1));
  if (cli_threads >= 0) exec.threads = static_cast<size_t>(cli_threads);
  return exec;
}

/// Strict non-negative integer parse; rejects "abc", "4x", "".
int parse_int_arg(const char* flag, const char* text) {
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) {
    std::fprintf(stderr, "antmd_run: %s expects a non-negative "
                         "integer, got '%s'\n", flag, text);
    std::exit(2);  // usage errors share the configuration exit code
  }
  return static_cast<int>(value);
}

/// Strict non-negative double parse for --watchdog-ms.
double parse_double_arg(const char* flag, const char* text) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value >= 0)) {
    std::fprintf(stderr, "antmd_run: %s expects a non-negative "
                         "number, got '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

/// Escalation signal: the supervisor exhausted its recovery budget.  Caught
/// in main() and mapped to exit code 5 (after the report was written).
struct RecoveryExhausted : Error {
  using Error::Error;
};

/// The `health` key as the Supervisor's numerical policy.
resilience::HealthConfig health_config(const std::string& health) {
  resilience::HealthConfig hc;
  if (health == "rollback") {
    hc.dt_scale_on_retry = 0.5;
  } else if (health == "throw") {
    hc.policy = resilience::HealthPolicy::kThrow;
  } else if (health != "off") {
    throw ConfigError("unknown health policy: " + health +
                      " (off | rollback | throw)");
  }
  return hc;
}

/// Checkpoint/health/supervision settings shared by the host and machine
/// branches.
struct RobustnessOptions {
  std::string checkpoint;        ///< empty = no on-disk checkpointing
  int checkpoint_interval = 200;
  bool resume = false;
  /// Run under resilience::Supervisor: --supervise, --checkpoint or a
  /// `health` other than off.
  bool supervise = false;
  resilience::HealthConfig health;
  int max_retries = 3;
  double watchdog_ms = 0.0;
  std::string report = "antmd_recovery_report.txt";
  // SDC auditing (supervised runs only; 0 = off).
  int audit_interval = 0;
  int audit_shadow_window = 2;
  int scrub_interval = 0;
  /// Static-data scrubber built by main() over the force field and
  /// topology; outlives the supervisor.  Null when auditing is off.
  resilience::Scrubber* scrubber = nullptr;
};

/// Runs `sim` to the configured total step count, optionally resuming from
/// a v2 checkpoint file, under the Supervisor unless the run is plain.
/// Returns the wall-clock seconds spent stepping (excludes construction and
/// resume I/O) for the end-of-run summary.
double run_simulation(md::Simulation& sim, size_t steps,
                      const RobustnessOptions& opt) {
  size_t remaining = steps;
  if (opt.resume) {
    // A torn/corrupt primary (CRC mismatch) degrades to the `.bak` mirror
    // the Supervisor keeps; only both failing is fatal.
    std::string used =
        io::load_checkpoint_v2_or_backup(opt.checkpoint, {{"sim", &sim}});
    uint64_t done = sim.state().step;
    remaining = done >= steps ? 0 : steps - static_cast<size_t>(done);
    std::printf("resumed from %s at step %" PRIu64 " (%zu steps left)\n",
                used.c_str(), done, remaining);
  }
  md::WallTimer wall;
  if (!opt.supervise) {
    sim.run(remaining);
    return wall.seconds();
  }
  resilience::SupervisorConfig sc;
  sc.max_retries = opt.max_retries;
  sc.watchdog_ms = opt.watchdog_ms;
  sc.snapshot_interval = opt.checkpoint_interval;
  sc.checkpoint_path = opt.checkpoint;
  sc.report_path = opt.report;
  sc.health = opt.health;
  sc.audit.interval = opt.audit_interval;
  sc.audit.shadow_window = opt.audit_shadow_window;
  sc.audit.scrub_interval = opt.scrub_interval;
  resilience::Supervisor supervisor(sim, sc);
  if (opt.audit_interval > 0) supervisor.enable_audit(opt.scrubber);
  resilience::RecoveryReport report = supervisor.run(remaining);
  std::fputs(report.render().c_str(), stdout);
  std::printf("final dt: %.3f fs\n", sim.timestep_fs());
  if (!report.completed) {
    throw RecoveryExhausted(report.final_error);
  }
  return wall.seconds();
}

/// End-of-run summary from the telemetry registry: throughput plus the
/// instrumented-phase breakdown (percent of the time spent under a
/// *.time_ns phase counter; phases may nest/overlap across threads, so the
/// shares describe where instrumented time went, not a partition of wall
/// time).
void print_telemetry_summary(size_t steps, double dt_fs, double wall_seconds,
                             double modeled_ns_day) {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const double steps_per_s =
      wall_seconds > 0 ? static_cast<double>(steps) / wall_seconds : 0.0;
  const double wall_ns_day =
      wall_seconds > 0
          ? static_cast<double>(steps) * dt_fs * 1e-6 * 86400.0 / wall_seconds
          : 0.0;
  std::printf("\nrun summary: %zu steps in %.3f s wall "
              "(%.1f steps/s, %.3f ns/day walltime)\n",
              steps, wall_seconds, steps_per_s, wall_ns_day);
  if (modeled_ns_day > 0) {
    std::printf("modeled machine rate: %.0f ns/day\n", modeled_ns_day);
  }
  Table table({"phase", "time (s)", "share"});
  for (const auto& p : obs::phase_breakdown(snap)) {
    if (p.seconds <= 0.0) continue;
    table.add_row({p.name, Table::num(p.seconds, 3),
                   Table::num(100.0 * p.fraction, 1) + " %"});
  }
  std::fputs(table.render().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const char* config_path = nullptr;
  int cli_threads = -1;  // -1 = not given
  int cli_checkpoint_interval = -1;
  const char* cli_checkpoint = nullptr;
  bool cli_resume = false;
  bool cli_supervise = false;
  int cli_max_retries = -1;
  double cli_watchdog_ms = -1.0;
  int cli_audit_interval = -1;
  int cli_audit_shadow_window = -1;
  int cli_scrub_interval = -1;
  const char* cli_fault = nullptr;
  const char* cli_trace_out = nullptr;
  const char* cli_metrics_out = nullptr;
  bool cli_no_telemetry = false;
  bool cli_profile = false;
  const char* cli_profile_out = nullptr;
  const char* cli_prom_out = nullptr;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--profile") {
      cli_profile = true;
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      cli_profile_out = argv[a] + std::strlen("--profile-out=");
    } else if (arg == "--profile-out" && a + 1 < argc) {
      cli_profile_out = argv[++a];
    } else if (arg.rfind("--prom-out=", 0) == 0) {
      cli_prom_out = argv[a] + std::strlen("--prom-out=");
    } else if (arg == "--prom-out" && a + 1 < argc) {
      cli_prom_out = argv[++a];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      cli_trace_out = argv[a] + std::strlen("--trace-out=");
    } else if (arg == "--trace-out" && a + 1 < argc) {
      cli_trace_out = argv[++a];
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      cli_metrics_out = argv[a] + std::strlen("--metrics-out=");
    } else if (arg == "--metrics-out" && a + 1 < argc) {
      cli_metrics_out = argv[++a];
    } else if (arg == "--no-telemetry") {
      cli_no_telemetry = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      cli_threads = parse_int_arg(
          "--threads", arg.c_str() + std::strlen("--threads="));
    } else if (arg == "--threads" && a + 1 < argc) {
      cli_threads = parse_int_arg("--threads", argv[++a]);
    } else if (arg.rfind("--checkpoint-interval=", 0) == 0) {
      cli_checkpoint_interval = parse_int_arg(
          "--checkpoint-interval",
          arg.c_str() + std::strlen("--checkpoint-interval="));
    } else if (arg == "--checkpoint-interval" && a + 1 < argc) {
      cli_checkpoint_interval = parse_int_arg("--checkpoint-interval",
                                              argv[++a]);
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      cli_checkpoint = argv[a] + std::strlen("--checkpoint=");
    } else if (arg == "--checkpoint" && a + 1 < argc) {
      cli_checkpoint = argv[++a];
    } else if (arg == "--resume") {
      cli_resume = true;
    } else if (arg == "--supervise") {
      cli_supervise = true;
    } else if (arg.rfind("--max-retries=", 0) == 0) {
      cli_max_retries = parse_int_arg(
          "--max-retries", arg.c_str() + std::strlen("--max-retries="));
    } else if (arg == "--max-retries" && a + 1 < argc) {
      cli_max_retries = parse_int_arg("--max-retries", argv[++a]);
    } else if (arg.rfind("--watchdog-ms=", 0) == 0) {
      cli_watchdog_ms = parse_double_arg(
          "--watchdog-ms", arg.c_str() + std::strlen("--watchdog-ms="));
    } else if (arg == "--watchdog-ms" && a + 1 < argc) {
      cli_watchdog_ms = parse_double_arg("--watchdog-ms", argv[++a]);
    } else if (arg.rfind("--audit-interval=", 0) == 0) {
      cli_audit_interval = parse_int_arg(
          "--audit-interval", arg.c_str() + std::strlen("--audit-interval="));
    } else if (arg == "--audit-interval" && a + 1 < argc) {
      cli_audit_interval = parse_int_arg("--audit-interval", argv[++a]);
    } else if (arg.rfind("--audit-shadow-window=", 0) == 0) {
      cli_audit_shadow_window = parse_int_arg(
          "--audit-shadow-window",
          arg.c_str() + std::strlen("--audit-shadow-window="));
    } else if (arg == "--audit-shadow-window" && a + 1 < argc) {
      cli_audit_shadow_window =
          parse_int_arg("--audit-shadow-window", argv[++a]);
    } else if (arg.rfind("--scrub-interval=", 0) == 0) {
      cli_scrub_interval = parse_int_arg(
          "--scrub-interval", arg.c_str() + std::strlen("--scrub-interval="));
    } else if (arg == "--scrub-interval" && a + 1 < argc) {
      cli_scrub_interval = parse_int_arg("--scrub-interval", argv[++a]);
    } else if (arg.rfind("--fault=", 0) == 0) {
      cli_fault = argv[a] + std::strlen("--fault=");
    } else if (arg == "--fault" && a + 1 < argc) {
      cli_fault = argv[++a];
    } else if (!config_path) {
      config_path = argv[a];
    } else {
      config_path = nullptr;
      break;
    }
  }
  if (!config_path) {
    std::fprintf(stderr,
                 "usage: antmd_run <config-file> [--threads N] "
                 "[--checkpoint PATH] [--checkpoint-interval N] "
                 "[--resume] [--supervise] [--max-retries N] "
                 "[--watchdog-ms X] [--fault SPEC] "
                 "[--audit-interval N] [--audit-shadow-window N] "
                 "[--scrub-interval N] [--trace-out PATH] "
                 "[--metrics-out PATH] [--no-telemetry] [--profile] "
                 "[--profile-out PATH] [--prom-out PATH]\n");
    return 2;
  }
  try {
    auto cfg = io::RunConfig::from_file(config_path);

    // Telemetry is on by default; tracing rides on the same enable flag.
    const bool telemetry =
        !cli_no_telemetry && cfg.get_bool("telemetry", true);
    std::string trace_out = cfg.get_string("trace_out", "");
    std::string metrics_out = cfg.get_string("metrics_out", "");
    if (cli_trace_out) trace_out = cli_trace_out;
    if (cli_metrics_out) metrics_out = cli_metrics_out;
    obs::register_standard_metrics();
    obs::set_enabled(telemetry);
    if (!trace_out.empty() && telemetry) {
      obs::TraceSession::global().start(trace_out);
    }

    // Attribution profiler: must be switched on before the simulation is
    // constructed so its collector sees every modeled step, including the
    // initial force evaluation — that is what makes the per-class sums
    // bit-comparable to the engine's accumulated() breakdown.
    std::string profile_out = cfg.get_string("profile_out", "");
    std::string prom_out = cfg.get_string("prom_out", "");
    if (cli_profile_out) profile_out = cli_profile_out;
    if (cli_prom_out) prom_out = cli_prom_out;
    const bool profiling =
        cli_profile || cfg.get_bool("profile", false) || !profile_out.empty();
    if (profiling) obs::set_profiling(true);

    auto spec = build_system(cfg);
    auto model = build_model(cfg);
    // GSE water without charges is meaningless; drop electrostatics when
    // the system carries none.
    bool charged = false;
    for (double q : spec.topology.charges()) {
      if (q != 0.0) charged = true;
    }
    if (!charged) model.electrostatics = ff::Electrostatics::kNone;

    ForceField field(spec.topology, model);
    const int steps = cfg.get_int("steps", 200);
    const int report = std::max(1, steps / 10);
    std::unique_ptr<io::XyzWriter> xyz;
    if (cfg.has("xyz")) {
      xyz = std::make_unique<io::XyzWriter>(cfg.require_string("xyz"),
                                            spec.topology);
    }

    std::printf("system: %s — %zu atoms\n", spec.name.c_str(),
                spec.topology.atom_count());

    const ExecutionConfig exec = build_execution(cfg, cli_threads);

    RobustnessOptions robust;
    robust.checkpoint = cfg.get_string("checkpoint", "");
    robust.checkpoint_interval = cfg.get_int("checkpoint_interval", 200);
    robust.resume = cfg.get_bool("resume", false);
    const std::string health = cfg.get_string("health", "off");
    robust.health = health_config(health);
    robust.supervise = cfg.get_bool("supervise", false);
    robust.max_retries = cfg.get_int("max_retries", 3);
    robust.watchdog_ms = cfg.get_double("watchdog_ms", 0.0);
    robust.report = cfg.get_string("report_out", "antmd_recovery_report.txt");
    if (cli_checkpoint) robust.checkpoint = cli_checkpoint;
    if (cli_checkpoint_interval >= 0) {
      robust.checkpoint_interval = cli_checkpoint_interval;
    }
    if (cli_resume) robust.resume = true;
    if (cli_supervise) robust.supervise = true;
    if (cli_max_retries >= 0) robust.max_retries = cli_max_retries;
    if (cli_watchdog_ms >= 0) robust.watchdog_ms = cli_watchdog_ms;
    robust.audit_interval = cfg.get_int("audit_interval", 0);
    robust.audit_shadow_window = cfg.get_int("audit_shadow_window", 2);
    robust.scrub_interval = cfg.get_int("scrub_interval", 0);
    if (cli_audit_interval >= 0) robust.audit_interval = cli_audit_interval;
    if (cli_audit_shadow_window >= 0) {
      robust.audit_shadow_window = cli_audit_shadow_window;
    }
    if (cli_scrub_interval >= 0) robust.scrub_interval = cli_scrub_interval;
    if (robust.audit_interval > 0 && !robust.supervise) {
      throw ConfigError("--audit-interval requires --supervise (the "
                        "supervisor performs the rollback recovery)");
    }
    if (robust.resume && robust.checkpoint.empty()) {
      throw ConfigError("--resume needs a checkpoint path (--checkpoint)");
    }
    // Checkpointing and numerical recovery are the Supervisor's too.
    robust.supervise = robust.supervise || !robust.checkpoint.empty() ||
                       health != "off";

    // Golden CRCs are captured now, before the run can flip any bits: the
    // scrubber covers the force field (packed spline tables + flattened
    // exclusion list) and every fixed topology array.
    resilience::Scrubber scrubber;
    if (robust.audit_interval > 0) {
      scrubber.add_object(field);
      scrubber.add_object(spec.topology);
      robust.scrubber = &scrubber;
      std::printf("audit: every %d step(s), shadow window %d, scrubbing "
                  "%zu region(s) / %zu bytes\n",
                  robust.audit_interval, robust.audit_shadow_window,
                  scrubber.region_count(), scrubber.total_bytes());
    }

    std::string fault_spec = cfg.get_string("fault", "");
    if (cli_fault) fault_spec = cli_fault;
    if (!fault_spec.empty()) {
      fault::arm(fault::parse_fault_plan(fault_spec));
      std::printf("fault armed: %s\n", fault_spec.c_str());
    }

    // The cluster kernel's ISA: the cpuid-probed widest variant, or
    // whatever ANTMD_FORCE_ISA pinned for the process.  Every variant is
    // bit-identical, so it only ever changes speed, never a trajectory.
    std::printf("nonbonded simd: %s\n",
                ff::to_string(ff::active_kernel_isa()));

    std::string engine = cfg.get_string("engine", "host");
    if (engine != "host" && engine != "machine") {
      throw ConfigError("unknown engine: " + engine);
    }
    // One integrator config for both engines, each on its own defaults
    // (the machine's: k-space every second step, no COM removal).
    runtime::MachineSimConfig machine_config;
    md::SimulationConfig host_config;
    md::SimulationConfig& sc =
        engine == "machine" ? machine_config : host_config;
    sc.dt_fs = cfg.get_double("dt_fs", 2.0);
    sc.kspace_interval = cfg.get_int("kspace_interval", sc.kspace_interval);
    sc.respa_inner = cfg.get_int("respa_inner", 1);
    sc.neighbor_skin = cfg.get_double("skin", 1.0);
    sc.nonbonded_kernel = ff::parse_nonbonded_kernel(
        cfg.get_string("nonbonded_kernel", "cluster"));
    sc.init_temperature_k = cfg.get_double("temperature", 300.0);
    sc.thermostat = build_thermostat(cfg);
    std::string barostat = cfg.get_string("barostat", "none");
    if (barostat == "mc") {
      sc.barostat.kind = md::BarostatKind::kMonteCarlo;
    } else if (barostat == "berendsen") {
      sc.barostat.kind = md::BarostatKind::kBerendsen;
    } else if (barostat == "semiiso") {
      sc.barostat.kind = md::BarostatKind::kBerendsenSemiIso;
    } else if (barostat != "none") {
      throw ConfigError("unknown barostat: " + barostat);
    }
    sc.barostat.pressure_atm = cfg.get_double("pressure", 1.0);
    sc.execution = exec;

    double run_wall_seconds = 0.0;
    double modeled_ns_day = 0.0;
    const double dt_fs = sc.dt_fs;
    if (engine == "machine") {
      int edge = cfg.get_int("nodes", 4);
      runtime::MachineSimulation sim(
          field, machine::anton_with_torus(edge, edge, edge), spec.positions,
          spec.box, machine_config);
      Table table({"step", "T (K)", "potential", "modeled ns/day"});
      sim.add_observer(
          [&](const md::StepInfo& info) {
            table.add_row({std::to_string(info.step),
                           Table::num(info.temperature, 1),
                           Table::num(info.potential, 1),
                           Table::num(sim.ns_per_day(), 0)});
            if (xyz) xyz->write_frame(sim.state());
          },
          report);
      if (telemetry) sim.add_observer(md::metrics_observer(), report);
      run_wall_seconds =
          run_simulation(sim, static_cast<size_t>(steps), robust);
      modeled_ns_day = sim.ns_per_day();
      std::fputs(table.render().c_str(), stdout);
      std::printf("modeled mean step: %.2f us on %zu nodes\n",
                  sim.mean_step_time_s() * 1e6, sim.engine().node_count());
    } else {
      md::Simulation sim(field, spec.positions, spec.box, host_config);
      Table table({"step", "T (K)", "potential", "pressure (atm)"});
      sim.add_observer(
          [&](const md::StepInfo& info) {
            table.add_row({std::to_string(info.step),
                           Table::num(info.temperature, 1),
                           Table::num(info.potential, 1),
                           Table::num(sim.pressure_atm(), 1)});
            if (xyz) xyz->write_frame(sim.state());
          },
          report);
      if (telemetry) sim.add_observer(md::metrics_observer(), report);
      run_wall_seconds =
          run_simulation(sim, static_cast<size_t>(steps), robust);
      std::fputs(table.render().c_str(), stdout);
    }
    if (xyz) {
      std::printf("wrote %zu frames to %s\n", xyz->frames_written(),
                  cfg.require_string("xyz").c_str());
    }
    if (telemetry) {
      print_telemetry_summary(static_cast<size_t>(steps), dt_fs,
                              run_wall_seconds, modeled_ns_day);
    }
    if (profiling) {
      auto& prof = obs::Profile::global();
      prof.publish_metrics();  // mirror into profile.* gauges pre-dump
      std::fputs(prof.render_summary().c_str(), stdout);
      if (!profile_out.empty()) {
        if (obs::write_text_file(profile_out, prof.to_json())) {
          std::printf("wrote profile: %s\n", profile_out.c_str());
        } else {
          std::fprintf(stderr, "antmd_run: failed to write profile %s\n",
                       profile_out.c_str());
        }
      }
    }
    if (!prom_out.empty()) {
      const std::string body =
          obs::MetricsRegistry::global().snapshot().to_prometheus();
      if (obs::write_text_file(prom_out, body)) {
        std::printf("wrote prometheus metrics: %s\n", prom_out.c_str());
      } else {
        std::fprintf(stderr, "antmd_run: failed to write %s\n",
                     prom_out.c_str());
      }
    }
    if (!trace_out.empty() && telemetry) {
      auto& session = obs::TraceSession::global();
      size_t events = session.event_count();
      if (session.stop()) {
        std::printf("wrote trace: %s (%zu events)\n", trace_out.c_str(),
                    events);
      } else {
        std::fprintf(stderr, "antmd_run: failed to write trace %s\n",
                     trace_out.c_str());
      }
    }
    if (!metrics_out.empty()) {
      if (obs::write_metrics_file(metrics_out,
                                  obs::MetricsRegistry::global().snapshot())) {
        std::printf("wrote metrics: %s\n", metrics_out.c_str());
      } else {
        std::fprintf(stderr, "antmd_run: failed to write metrics %s\n",
                     metrics_out.c_str());
      }
    }
    return 0;
  } catch (const RecoveryExhausted& e) {
    std::fprintf(stderr, "antmd_run: recovery exhausted: %s\n", e.what());
    return 5;
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "antmd_run: %s\n", e.what());
    return 2;
  } catch (const IoError& e) {
    std::fprintf(stderr, "antmd_run: %s\n", e.what());
    return 3;
  } catch (const NumericalError& e) {
    std::fprintf(stderr, "antmd_run: %s\n", e.what());
    return 4;
  } catch (const Error& e) {
    std::fprintf(stderr, "antmd_run: %s\n", e.what());
    return 1;
  }
}
