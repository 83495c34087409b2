// water_gse and lj_cutoff: one equilibrated system, timed at one lane and
// at four lanes from the same start, in a closed loop (each step starts
// when the previous one returns).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "ff/forcefield.hpp"
#include "fleet/run.hpp"
#include "layers.hpp"
#include "md/builder.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "topo/builders.hpp"

namespace perfbench {

using namespace antmd;

namespace {

constexpr double kCutoff = 9.0;       ///< Å
constexpr double kSkin = 1.5;         ///< Å
constexpr double kGammaPerPs = 5.0;   ///< Langevin friction of the windows
constexpr double kConstraintTol = 1e-8;  ///< md::Simulation's SHAKE tolerance
constexpr uint64_t kBuilderSeed = 1;  ///< lattice jitter of the base box
constexpr size_t kMinWindowSteps = 3;

/// One workload's system.  The timed system is `tile`³ copies of an
/// equilibrated base box, so its box edge is exactly tile × the base edge.
struct MdSpec {
  std::string name;
  bool water = false;
  size_t base_count = 0;  ///< molecules (water) or atoms (LJ) in the base box
  size_t tile = 2;
  double density = 0.021;  ///< LJ atoms/Å³
  double temperature_k = 300.0;
  double dt_fs = 2.0;
  size_t equil_steps = 0;  ///< base-box equilibration (outside all timing)
  double tail_percentile = 90.0;  ///< step_ms_tail (see perfbench::Tail)
  /// Steps per turn when the 1-lane and 4-lane windows alternate (about
  /// half a second of work).
  size_t chunk_steps = 8;

  [[nodiscard]] size_t count() const { return base_count * tile * tile * tile; }
  [[nodiscard]] size_t atoms_per_molecule() const { return water ? 3 : 1; }
};

MdSpec md_spec(const Options& opt) {
  MdSpec s;
  s.name = opt.workload;
  s.tile = opt.tiny ? 1 : 2;
  if (opt.workload == "water_gse") {
    s.water = true;
    s.base_count = 512;  // 4096 rigid3 waters = 12,288 atoms once tiled
    s.temperature_k = 300.0;
    s.dt_fs = 2.0;
    s.equil_steps = 500;
    s.tail_percentile = 50.0;  // ~20 steps per window at ~0.5 s a step
    s.chunk_steps = 1;
  } else {
    s.base_count = 4096;  // 32,768 LJ atoms once tiled
    s.density = 0.021;
    s.temperature_k = 120.0;
    s.dt_fs = 5.0;
    s.equil_steps = 400;
    s.tail_percentile = 90.0;  // ~200 steps per window
  }
  return s;
}

SystemSpec build_system(const MdSpec& s, size_t count) {
  return s.water ? build_water_box(count, WaterModel::kRigid3Site, kBuilderSeed)
                 : build_lj_fluid(count, s.density, kBuilderSeed);
}

ff::NonbondedModel model_for(const MdSpec& s) {
  ff::NonbondedModel m;
  m.cutoff = kCutoff;
  if (s.water) {
    m.electrostatics = ff::Electrostatics::kEwaldReal;
    m.ewald_beta = 0.4;  // antmd_run's default for electrostatics = gse
  } else {
    m.electrostatics = ff::Electrostatics::kNone;
  }
  return m;
}

/// One set-up system.  Members are declared in dependency order: the force
/// field references the topology and the simulation references the field.
struct Instance {
  SystemSpec system;
  std::unique_ptr<ForceField> field;
  std::unique_ptr<md::Simulation> sim;
};

struct StartState {
  std::vector<Vec3> positions;
  Box box;
};

struct SetupTimes {
  double topo_s = 0.0, ff_s = 0.0, md_s = 0.0;
  [[nodiscard]] double total() const { return topo_s + ff_s + md_s; }
};

/// setup_s: topology build, ForceField construction and Simulation
/// construction (which builds the first neighbor list and evaluates the
/// first forces).
std::unique_ptr<Instance> set_up(const MdSpec& s, const StartState& start,
                                 size_t threads, uint64_t seed,
                                 md::ThermostatConfig thermostat,
                                 SetupTimes& times) {
  ScopedSpan setup("setup");
  auto inst = std::make_unique<Instance>();
  int64_t t0 = now_ns();
  {
    ScopedSpan span("topo.build");
    inst->system = build_system(s, s.count());
  }
  times.topo_s = seconds_since(t0);
  t0 = now_ns();
  {
    ScopedSpan span("ff.setup");
    inst->field = std::make_unique<ForceField>(inst->system.topology,
                                               model_for(s));
  }
  times.ff_s = seconds_since(t0);
  t0 = now_ns();
  {
    ScopedSpan span("md.setup");
    inst->sim = md::SimulationBuilder()
                    .dt_fs(s.dt_fs)
                    .neighbor_skin(kSkin)
                    .nonbonded_kernel(ff::NonbondedKernel::kCluster)
                    .init_temperature(s.temperature_k)
                    .velocity_seed(seed)
                    .thermostat(thermostat)
                    .threads(threads)
                    .build_unique(*inst->field, start.positions, start.box);
  }
  times.md_s = seconds_since(t0);
  return inst;
}

md::ThermostatConfig langevin(double temperature_k, uint64_t seed) {
  md::ThermostatConfig t;
  t.kind = md::ThermostatKind::kLangevin;
  t.temperature_k = temperature_k;
  t.gamma_per_ps = kGammaPerPs;
  t.seed = seed;
  return t;
}

/// Projects the freshly drawn Maxwell–Boltzmann velocities onto the
/// constraint manifold (RATTLE) and rescales them to the setpoint, so a
/// constrained system does not start a third colder than its bath.
void thermalize(md::Simulation& sim, double temperature_k) {
  State& st = sim.mutable_state();
  if (!sim.constraints().empty()) {
    sim.constraints().apply_velocities(st.positions, st.velocities, st.box);
  }
  sim.rescale_velocities(std::sqrt(temperature_k / sim.temperature()));
}

/// Keeps every molecule whole around its wrapped first atom, so the box can
/// be tiled without splitting molecules across copies.
std::vector<Vec3> whole_molecules(const MdSpec& s, const State& state) {
  const size_t per = s.atoms_per_molecule();
  std::vector<Vec3> out(state.positions.size());
  for (size_t m = 0; m < out.size(); m += per) {
    const Vec3 anchor = state.box.wrap(state.positions[m]);
    out[m] = anchor;
    for (size_t j = 1; j < per; ++j) {
      out[m + j] =
          anchor + state.box.min_image(state.positions[m + j], state.positions[m]);
    }
  }
  return out;
}

/// Equilibrates the base box from its lattice: strong Berendsen coupling
/// drains the lattice's excess potential energy, then Langevin dynamics at
/// the setpoint relaxes the structure.  Deterministic and independent of
/// the run seed, so it is computed once per source tree and cached.
StartState equilibrate_base(const MdSpec& s, std::vector<std::string>& notes) {
  SystemSpec base = build_system(s, s.base_count);
  ForceField field(base.topology, model_for(s));
  StartState cur{base.positions, base.box};
  const size_t half = s.equil_steps / 2;
  for (int phase = 0; phase < 2; ++phase) {
    md::ThermostatConfig t = langevin(s.temperature_k, 7 + phase);
    if (phase == 0) {
      t.kind = md::ThermostatKind::kBerendsen;
      t.tau_fs = 10.0 * s.dt_fs;
    }
    auto sim = md::SimulationBuilder()
                   .dt_fs(s.dt_fs)
                   .neighbor_skin(kSkin)
                   .init_temperature(s.temperature_k)
                   .velocity_seed(11 + phase)
                   .thermostat(t)
                   .threads(4)
                   .build_unique(field, cur.positions, cur.box);
    thermalize(*sim, s.temperature_k);
    sim->run(phase == 0 ? half : s.equil_steps - half);
    cur = {whole_molecules(s, sim->state()), sim->state().box};
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "equilibrated %s base box (%zu atoms), phase %d: T = %.1f K",
                  s.name.c_str(), base.topology.atom_count(), phase,
                  sim->temperature());
    notes.push_back(buf);
  }
  return cur;
}

constexpr uint64_t kCacheMagic = 0x3151454250ull;  // "PBEQ1"

bool load_base(const std::string& path, size_t atoms, StartState& out) {
  std::ifstream in(path, std::ios::binary);
  uint64_t magic = 0, n = 0;
  double edges[3];
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(edges), sizeof(edges));
  if (!in || magic != kCacheMagic || n != atoms) return false;
  out.positions.resize(n);
  in.read(reinterpret_cast<char*>(out.positions.data()),
          static_cast<std::streamsize>(n * sizeof(Vec3)));
  out.box = Box(edges[0], edges[1], edges[2]);
  return static_cast<bool>(in);
}

void save_base(const std::string& path, const StartState& st) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    const uint64_t n = st.positions.size();
    const Vec3 e = st.box.edges();
    const double edges[3] = {e.x, e.y, e.z};
    out.write(reinterpret_cast<const char*>(&kCacheMagic), sizeof(kCacheMagic));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(edges), sizeof(edges));
    out.write(reinterpret_cast<const char*>(st.positions.data()),
              static_cast<std::streamsize>(n * sizeof(Vec3)));
  }
  std::filesystem::rename(tmp, path);
}

/// The timed start: the equilibrated base box tiled tile³ times.
StartState start_state(const MdSpec& s, const Options& opt,
                       std::vector<std::string>& notes) {
  const size_t base_atoms = s.base_count * s.atoms_per_molecule();
  const std::string path = opt.cache_dir + "/" + s.name + "-" +
                           std::to_string(s.base_count) + ".eq";
  StartState base;
  if (!load_base(path, base_atoms, base)) {
    base = equilibrate_base(s, notes);
    std::filesystem::create_directories(opt.cache_dir);
    save_base(path, base);
  }
  const Vec3 edge = base.box.edges();
  StartState out;
  out.box = Box(edge.x * static_cast<double>(s.tile),
                edge.y * static_cast<double>(s.tile),
                edge.z * static_cast<double>(s.tile));
  out.positions.reserve(base_atoms * s.tile * s.tile * s.tile);
  for (size_t ix = 0; ix < s.tile; ++ix) {
    for (size_t iy = 0; iy < s.tile; ++iy) {
      for (size_t iz = 0; iz < s.tile; ++iz) {
        const Vec3 shift{edge.x * static_cast<double>(ix),
                         edge.y * static_cast<double>(iy),
                         edge.z * static_cast<double>(iz)};
        for (const Vec3& p : base.positions) out.positions.push_back(p + shift);
      }
    }
  }
  return out;
}

/// A timed window over one simulation, advanced in chunks so the 1-lane and
/// 4-lane windows can alternate: both then sample the same stretches of a
/// shared host's fluctuating speed.  Each step is timed on its own; the
/// sanity gate samples after every step, outside the step's timing.
class Window {
 public:
  Window(md::Simulation& sim, double setpoint_k, bool traced)
      : gate(setpoint_k, kConstraintTol),
        sim_(sim),
        traced_(traced),
        builds0_(sim.neighbor_list().build_count()) {}

  void advance(size_t n) {
    static const obs::Counter& kspace_ns =
        obs::MetricsRegistry::global().counter("md.kspace.time_ns");
    const bool constrained = !sim_.constraints().empty();
    const double cpu0 = process_cpu_s();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k0 = kspace_ns.value();
      const int64_t t0 = now_ns();
      if (traced_) {
        ScopedSpan span("md.step");
        sim_.step();
      } else {
        sim_.step();
      }
      const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
      step_ms.push_back(ms);
      seconds += ms * 1e-3;
      if (kspace_ns.value() != k0) ++kspace_steps;
      const State& st = sim_.state();
      gate.sample(st.step, sim_.temperature(), sim_.potential_energy(),
                  sim_.kinetic_energy(),
                  constrained
                      ? sim_.constraints().max_violation(st.positions, st.box)
                      : 0.0);
    }
    cpu_s += process_cpu_s() - cpu0;
  }

  [[nodiscard]] size_t steps() const { return step_ms.size(); }
  [[nodiscard]] double steps_per_s() const {
    return seconds > 0 ? static_cast<double>(steps()) / seconds : 0.0;
  }
  /// Neighbor-list builds since the window opened.
  [[nodiscard]] uint64_t rebuilds() const {
    return sim_.neighbor_list().build_count() - builds0_;
  }
  [[nodiscard]] uint64_t digest() const {
    return fleet::state_digest(sim_.state());
  }
  [[nodiscard]] std::string note(const char* label) const {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s window: %zu steps, %.3f steps/s, T in [%.1f, %.1f] K, "
                  "%" PRIu64 " rebuilds, %.2f CPU s per step s",
                  label, steps(), steps_per_s(), gate.t_min(), gate.t_max(),
                  rebuilds(), seconds > 0 ? cpu_s / seconds : 0.0);
    return buf;
  }

  SanityGate gate;
  std::vector<double> step_ms;
  double seconds = 0.0;     ///< sum of step times
  size_t kspace_steps = 0;  ///< steps in which reciprocal space ran
  double cpu_s = 0.0;       ///< process CPU time spent in advance()

 private:
  md::Simulation& sim_;
  bool traced_;
  uint64_t builds0_;
};

fleet::RunSpec as_run_spec(const MdSpec& s, uint64_t seed) {
  fleet::RunSpec r;
  r.name = s.name;
  r.system = s.water ? "water" : "ljfluid";
  r.size = s.count();
  r.seed = seed;
  r.density = s.density;
  r.steps = 1;
  r.dt_fs = s.dt_fs;
  r.temperature_k = s.temperature_k;
  r.cutoff = kCutoff;
  r.electrostatics = s.water ? "gse" : "none";
  return r;
}

}  // namespace

Result run_md_workload(const Options& opt) {
  const MdSpec s = md_spec(opt);
  Result res;
  obs::register_standard_metrics();
  obs::set_enabled(true);  // antmd_run's default: telemetry on
  recorder().set_enabled(opt.trace);

  const StartState start = start_state(s, opt, res.notes);
  const uint64_t vseed = mix_seed(opt.seed, 1);
  const md::ThermostatConfig thermo =
      langevin(s.temperature_k, mix_seed(opt.seed, 2));

  // setup_s is the median of three one-lane set-ups: the one that drives
  // the 1-lane window and two after the windows, so the three sample
  // different stretches of the host's speed.  The traced run sets up a
  // third copy of the system from the same start and steps it in turn with
  // the other two, with a span around every step.
  std::vector<SetupTimes> setups(3);
  std::unique_ptr<Instance> traced;  // outlives the windows: probed below
  std::optional<Window> wt;
  std::vector<double> step_ms;
  double sps1 = 0.0, sps4 = 0.0;
  {
    SetupTimes t4_times;
    auto inst1 = set_up(s, start, 1, vseed, thermo, setups[0]);
    auto inst4 = set_up(s, start, 4, vseed, thermo, t4_times);
    if (opt.trace) traced = set_up(s, start, 1, vseed, thermo, setups[1]);
    for (Instance* inst : {inst1.get(), inst4.get(), traced.get()}) {
      if (!inst) continue;
      thermalize(*inst->sim, s.temperature_k);
      inst->sim->step();  // untimed: lets lazy allocations settle
    }
    Window w1(*inst1->sim, s.temperature_k, false);
    Window w4(*inst4->sim, s.temperature_k, false);
    if (traced) wt.emplace(*traced->sim, s.temperature_k, true);
    // The windows take turns for --seconds of wall time (three quarters of
    // it in the traced run, which then spends time on probes).
    const double window_s = (opt.trace ? 0.75 : 1.0) * opt.seconds;
    const int64_t t0 = now_ns();
    while (w1.steps() < kMinWindowSteps || seconds_since(t0) < window_s) {
      w1.advance(s.chunk_steps);
      w4.advance(s.chunk_steps);
      if (wt) wt->advance(s.chunk_steps);
    }
    res.notes.push_back(w1.note("1-lane"));
    res.notes.push_back(w4.note("4-lane"));
    res.attempt(w1.gate.ok(), "sanity gate, 1-lane window", w1.gate.reason());
    res.attempt(w4.gate.ok(), "sanity gate, 4-lane window", w4.gate.reason());
    res.attempt(w1.digest() == w4.digest(),
                "1-lane and 4-lane windows end byte-identical",
                "state digests differ");
    if (wt) {
      res.notes.push_back(wt->note("traced 1-lane"));
      res.attempt(wt->gate.ok(), "sanity gate, traced window",
                  wt->gate.reason());
      res.attempt(wt->digest() == w1.digest(),
                  "traced window ends byte-identical", "state digests differ");
    }
    step_ms = w1.step_ms;
    sps1 = w1.steps_per_s();
    sps4 = w4.steps_per_s();
  }
  for (size_t k = opt.trace ? 2 : 1; k < setups.size(); ++k) {
    set_up(s, start, 1, vseed, thermo, setups[k]);
  }

  if (!opt.trace) {
    std::vector<double> setup_s;
    for (const SetupTimes& t : setups) setup_s.push_back(t.total());
    const Tail t = tail(step_ms, s.tail_percentile);
    res.set("steps_per_s_t1", sps1, "1/s");
    res.set("steps_per_s_t4", sps4, "1/s");
    res.set("step_ms_p50", median(step_ms), "ms");
    res.set("step_ms_tail", t.value, "ms");
    res.set("setup_s", median(setup_s), "s");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "step_ms_tail is p%.0f of %zu steps (%zu beyond it)",
                  t.percentile, t.samples, t.beyond);
    res.notes.push_back(buf);
    return res;
  }

  // Counts from the traced window, taken before the probes below rebuild
  // the neighbor list of the same simulation.
  const double n = static_cast<double>(wt->steps());
  const double kspace_per_step = static_cast<double>(wt->kspace_steps) / n;
  const double rebuilds_per_step = static_cast<double>(wt->rebuilds()) / n;

  // Probes of every layer on the state the traced window ends in.
  md::Simulation& sim = *traced->sim;
  CapturedSystem cap;
  cap.field = traced->field.get();
  cap.positions = sim.state().positions;
  cap.velocities = sim.state().velocities;
  cap.box = sim.state().box;
  cap.skin = kSkin;
  cap.dt_fs = s.dt_fs;
  probe_md_layers(cap, res);
  std::filesystem::create_directories(opt.out_dir);
  probe_checkpoint(sim, opt.out_dir + "/" + s.name + ".ckpt", res);
  probe_fleet_layer({as_run_spec(s, vseed)}, 1, res);

  res.set("ewald.calls_per_step", kspace_per_step, "count");
  res.set("md.nlist.rebuilds_per_100_steps", 100.0 * rebuilds_per_step,
          "count");
  // The step's wall time not accounted for by its layers' probe times
  // (integration, thermostat, reductions, graph dispatch).  Probes run
  // outside the step, so on a busy host this can read negative.
  res.set("md.step_other_ms",
          mean(wt->step_ms) -
              (res.value("ewald.compute_ms") * kspace_per_step +
               res.value("md.nlist.build_ms_t1") * rebuilds_per_step +
               res.value("ff.nonbonded_ms_t1") + res.value("md.constraints_ms")),
          "ms");
  res.set("util.speedup_t4", sps4 / sps1, "x");
  res.set("obs.trace_overhead_frac", 1.0 - wt->steps_per_s() / sps1, "ratio");
  std::vector<double> topo, ffs, mds;
  for (const SetupTimes& t : setups) {
    topo.push_back(t.topo_s * 1e3);
    ffs.push_back(t.ff_s * 1e3);
    mds.push_back(t.md_s * 1e3);
  }
  res.set("topo.build_ms", median(topo), "ms");
  res.set("ff.setup_ms", median(ffs), "ms");
  res.set("md.setup_ms", median(mds), "ms");
  res.set("fleet.evictions", 0.0, "count");
  return res;
}

bool gate_rejects_lattice_start(std::vector<std::string>& notes) {
  Options opt;
  opt.workload = "water_gse";
  const MdSpec s = md_spec(opt);
  SystemSpec spec = build_system(s, s.count());
  ForceField field(spec.topology, model_for(s));
  auto sim = md::SimulationBuilder()
                 .dt_fs(s.dt_fs)
                 .neighbor_skin(kSkin)
                 .init_temperature(s.temperature_k)
                 .velocity_seed(3)
                 .thermostat(langevin(s.temperature_k, 3))
                 .threads(4)
                 .build_unique(field, spec.positions, spec.box);
  Window w(*sim, s.temperature_k, false);
  w.advance(20);
  notes.push_back(w.note("lattice-start"));
  if (!w.gate.ok()) notes.push_back("gate: " + w.gate.reason());
  return !w.gate.ok();
}

}  // namespace perfbench
