// fleet_small: many ~512-atom LJ runs multiplexed by one in-process
// fleet::Scheduler, two thirds on the host engine and one third on the
// machine engine (2×2×2 torus).  The memory budget holds one run, so every
// slice parks the previous run in a checkpoint and rehydrates the next.
// Closed loop: each Scheduler::pump starts when the previous one returns.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <system_error>
#include <utility>

#include "bench.hpp"
#include "ff/forcefield.hpp"
#include "fleet/scheduler.hpp"
#include "layers.hpp"
#include "md/builder.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "topo/builders.hpp"

namespace perfbench {

using namespace antmd;

namespace {

constexpr size_t kSliceSteps = 16;
constexpr size_t kMinRounds = 2;  ///< a repeat is what the output check compares
constexpr double kTailPercentile = 95.0;  ///< ~300 slices per window
constexpr size_t kSetupEvery = 8;  ///< turns between set-up samples

std::vector<fleet::RunSpec> tenant_specs(const Options& opt) {
  std::vector<fleet::RunSpec> specs;
  const size_t n = opt.tiny ? 3 : 12;
  for (size_t i = 0; i < n; ++i) {
    fleet::RunSpec r;
    r.name = "tenant-" + std::to_string(i);
    r.system = "ljfluid";
    r.size = 512;
    r.density = 0.021;
    r.seed = mix_seed(opt.seed, 100 + i);
    r.engine = i % 3 == 2 ? "machine" : "host";
    r.nodes = 2;
    r.steps = opt.tiny ? 32 : 128;
    r.dt_fs = 2.0;
    r.temperature_k = 120.0;
    r.cutoff = 8.5;
    r.electrostatics = "none";
    specs.push_back(r);
  }
  return specs;
}

/// One fleet lifetime: scheduler construction, admission of every tenant,
/// then pumps until every run is terminal.
struct Round {
  std::vector<double> slice_ms;
  double seconds = 0.0;  ///< sum of slice times
  uint64_t steps = 0;
  uint64_t evictions = 0;
  size_t completed = 0;
  std::vector<uint64_t> digests;  ///< per tenant final state digest
  std::vector<double> ns_day;     ///< per machine tenant modeled ns/day
};

/// The memory budget holds exactly one run (every tenant has the same
/// footprint), which forces an eviction at every slice boundary.
fleet::SchedulerConfig scheduler_config(const std::vector<fleet::RunSpec>& specs,
                                        size_t lanes, const std::string& dir) {
  fleet::SchedulerConfig cfg;
  cfg.slice_steps = kSliceSteps;
  cfg.threads = lanes;
  cfg.checkpoint_dir = dir;
  for (const fleet::RunSpec& s : specs) {
    cfg.memory_budget_bytes =
        std::max(cfg.memory_budget_bytes, fleet::estimate_resident_bytes(s));
  }
  return cfg;
}

/// setup_s of the fleet: scheduler construction and admission of every
/// tenant, i.e. the time up to the first slice.
double time_setup(const fleet::SchedulerConfig& cfg,
                  const std::vector<fleet::RunSpec>& specs) {
  const int64_t t0 = now_ns();
  fleet::Scheduler sched(cfg);
  for (const fleet::RunSpec& s : specs) sched.submit(s);
  return seconds_since(t0);
}

/// One fleet lifetime, advanced one Scheduler::pump at a time so fleets
/// (1-lane, 4-lane and, in the traced run, a traced 1-lane one) can take
/// turns slice by slice: all then sample the same stretches of a shared
/// host's fluctuating speed.  A traced fleet records a span per slice.
class FleetRound {
 public:
  FleetRound(const std::vector<fleet::RunSpec>& specs, size_t lanes,
             std::string dir, bool traced)
      : dir_(std::move(dir)), traced_(traced) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    sched_ = std::make_unique<fleet::Scheduler>(
        scheduler_config(specs, lanes, dir_));
    for (const fleet::RunSpec& s : specs) ids_.push_back(sched_->submit(s));
    done_.assign(ids_.size(), 0);
    round_.ns_day.assign(ids_.size(), 0.0);
  }
  ~FleetRound() {
    sched_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  FleetRound(const FleetRound&) = delete;
  FleetRound& operator=(const FleetRound&) = delete;

  [[nodiscard]] bool done() const { return !more_; }

  void pump() {
    static const obs::Gauge& ns_gauge =
        obs::MetricsRegistry::global().gauge("machine.model.ns_per_day");
    const int64_t t = now_ns();
    if (traced_) {
      ScopedSpan span("fleet.slice");
      more_ = sched_->pump();
    } else {
      more_ = sched_->pump();
    }
    const double ms = static_cast<double>(now_ns() - t) * 1e-6;
    round_.slice_ms.push_back(ms);
    round_.seconds += ms * 1e-3;
    for (size_t i = 0; i < ids_.size(); ++i) {
      const fleet::RunStatus& st = sched_->status(ids_[i]);
      if (st.steps_done == done_[i]) continue;
      done_[i] = st.steps_done;
      // One run is in flight per slice, so the gauge is this run's.
      if (st.engine == "machine" && st.phase == fleet::RunPhase::kCompleted) {
        round_.ns_day[i] = ns_gauge.value();
      }
    }
  }

  /// Outcome once done(): per-tenant digests, completions and counters.
  [[nodiscard]] Round result() const {
    Round r = round_;
    for (uint64_t id : ids_) {
      const fleet::RunStatus& st = sched_->status(id);
      r.steps += st.steps_done;
      r.evictions += st.evictions;
      r.digests.push_back(st.final_digest);
      if (st.phase == fleet::RunPhase::kCompleted) ++r.completed;
    }
    return r;
  }

 private:
  std::string dir_;
  bool traced_;
  std::unique_ptr<fleet::Scheduler> sched_;
  std::vector<uint64_t> ids_;
  std::vector<uint64_t> done_;  ///< steps_done seen after the last pump
  Round round_;
  bool more_ = true;
};

void check_rounds(const std::vector<Round>& rounds, const char* label,
                  const Round& reference, size_t tenants, Result& res) {
  for (size_t k = 0; k < rounds.size(); ++k) {
    const Round& r = rounds[k];
    char what[96];
    std::snprintf(what, sizeof(what), "%s round %zu: %zu/%zu tenants complete",
                  label, k, r.completed, tenants);
    res.attempt(r.completed == tenants, what, "a tenant did not complete");
    std::snprintf(what, sizeof(what),
                  "%s round %zu repeats final states and modeled ns/day", label,
                  k);
    res.attempt(r.digests == reference.digests && r.ns_day == reference.ns_day,
                what, "differs from the first 1-lane round");
  }
}

struct RoundStats {
  double steps_per_s = 0.0;
  std::vector<double> slice_ms;
};

RoundStats stats(const std::vector<Round>& rounds) {
  RoundStats s;
  double seconds = 0.0, steps = 0.0;
  for (const Round& r : rounds) {
    seconds += r.seconds;
    steps += static_cast<double>(r.steps);
    s.slice_ms.insert(s.slice_ms.end(), r.slice_ms.begin(), r.slice_ms.end());
  }
  s.steps_per_s = seconds > 0 ? steps / seconds : 0.0;
  return s;
}

/// Layer probes on one tenant, built outside the fleet: its set-up phases,
/// one whole run of it, then the md layers on the state that run ends in
/// and a checkpoint round trip of its engine.
void probe_tenant(const fleet::RunSpec& spec, const Options& opt, Result& res) {
  std::vector<double> topo_ms, ff_ms, md_ms;
  ff::NonbondedModel model;
  model.cutoff = spec.cutoff;
  model.electrostatics = ff::Electrostatics::kNone;
  // Declared in dependency order: the simulation references the field,
  // which references the system's topology.
  SystemSpec system;
  std::unique_ptr<ForceField> field;
  std::unique_ptr<md::Simulation> sim;
  for (int k = 0; k < 3; ++k) {
    sim.reset();
    field.reset();
    int64_t t0 = now_ns();
    system = build_lj_fluid(spec.size, spec.density, spec.seed);
    topo_ms.push_back(seconds_since(t0) * 1e3);
    t0 = now_ns();
    field = std::make_unique<ForceField>(system.topology, model);
    ff_ms.push_back(seconds_since(t0) * 1e3);
    t0 = now_ns();
    md::ThermostatConfig thermo;
    thermo.kind = md::ThermostatKind::kLangevin;
    thermo.temperature_k = spec.temperature_k;
    thermo.gamma_per_ps = spec.gamma_per_ps;
    sim = md::SimulationBuilder()
              .dt_fs(spec.dt_fs)
              .thermostat(thermo)
              .init_temperature(spec.temperature_k)
              .velocity_seed(spec.seed)
              .build_unique(*field, system.positions, system.box);
    md_ms.push_back(seconds_since(t0) * 1e3);
  }
  res.set("topo.build_ms", median(topo_ms), "ms");
  res.set("ff.setup_ms", median(ff_ms), "ms");
  res.set("md.setup_ms", median(md_ms), "ms");

  // One tenant's whole run on the host engine, as the fleet advances it.
  const obs::Counter& kspace_ns =
      obs::MetricsRegistry::global().counter("md.kspace.time_ns");
  const uint64_t builds0 = sim->neighbor_list().build_count();
  size_t kspace_steps = 0;
  {
    ScopedSpan span("md.tenant_run");
    for (uint64_t i = 0; i < spec.steps; ++i) {
      const uint64_t k0 = kspace_ns.value();
      sim->step();
      if (kspace_ns.value() != k0) ++kspace_steps;
    }
  }
  const double steps = static_cast<double>(spec.steps);
  res.set("md.nlist.rebuilds_per_100_steps",
          100.0 *
              static_cast<double>(sim->neighbor_list().build_count() - builds0) /
              steps,
          "count");
  res.set("ewald.calls_per_step", static_cast<double>(kspace_steps) / steps,
          "count");

  CapturedSystem cap;
  cap.field = field.get();
  cap.positions = sim->state().positions;
  cap.velocities = sim->state().velocities;
  cap.box = sim->state().box;
  cap.skin = sim->config().neighbor_skin;
  cap.dt_fs = spec.dt_fs;
  probe_md_layers(cap, res);
  std::filesystem::create_directories(opt.out_dir);
  probe_checkpoint(*sim, opt.out_dir + "/fleet_small.ckpt", res);
}

}  // namespace

Result run_fleet_workload(const Options& opt) {
  Result res;
  obs::register_standard_metrics();
  obs::set_enabled(true);  // antmd_fleet's default: telemetry on
  recorder().set_enabled(opt.trace);

  const std::vector<fleet::RunSpec> specs = tenant_specs(opt);
  const std::string dir = opt.out_dir + "/fleet";
  // Fleets are repeated until --seconds of wall time is spent (three
  // quarters of it in the traced run, which then spends time on probes).
  const double window_s = (opt.trace ? 0.75 : 1.0) * opt.seconds;

  // Set-up is sub-millisecond, so it is sampled many times, spread over
  // the whole run (every kSetupEvery turns) for a steady median.
  std::vector<double> setup_s;
  const fleet::SchedulerConfig setup_cfg = scheduler_config(specs, 1, dir);
  std::vector<Round> t1, t4, traced;
  size_t turns = 0;
  const int64_t t0 = now_ns();
  while (t1.size() < kMinRounds || seconds_since(t0) < window_s) {
    FleetRound a(specs, 1, dir + "-t1", false);
    FleetRound b(specs, 4, dir + "-t4", false);
    std::optional<FleetRound> c;
    if (opt.trace) c.emplace(specs, 1, dir + "-traced", true);
    while (!a.done() || !b.done() || (c && !c->done())) {
      if (turns++ % kSetupEvery == 0) {
        setup_s.push_back(time_setup(setup_cfg, specs));
      }
      if (!a.done()) a.pump();
      if (!b.done()) b.pump();
      if (c && !c->done()) c->pump();
    }
    t1.push_back(a.result());
    t4.push_back(b.result());
    if (c) traced.push_back(c->result());
  }
  check_rounds(t1, "1-lane", t1.front(), specs.size(), res);
  check_rounds(t4, "4-lane", t1.front(), specs.size(), res);
  const RoundStats s1 = stats(t1), s4 = stats(t4);
  {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "fleet: %zu tenants x %zu rounds per lane count, %llu "
                  "evictions per round, %.1f steps/s (1 lane), %.1f (4 lanes)",
                  specs.size(), t1.size(),
                  static_cast<unsigned long long>(t1.front().evictions),
                  s1.steps_per_s, s4.steps_per_s);
    res.notes.push_back(buf);
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].engine != "machine") continue;
      std::snprintf(buf, sizeof(buf), "modeled ns/day %s: %.17g",
                    specs[i].name.c_str(), t1.front().ns_day[i]);
      res.notes.push_back(buf);
    }
  }

  if (!opt.trace) {
    const Tail t = tail(s1.slice_ms, kTailPercentile);
    res.set("steps_per_s_t1", s1.steps_per_s, "1/s");
    res.set("steps_per_s_t4", s4.steps_per_s, "1/s");
    res.set("step_ms_p50", median(s1.slice_ms), "ms");
    res.set("step_ms_tail", t.value, "ms");
    res.set("setup_s", median(setup_s), "s");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "step_ms_tail is p%.0f of %zu slices (%zu beyond it)",
                  t.percentile, t.samples, t.beyond);
    res.notes.push_back(buf);
    return res;
  }

  check_rounds(traced, "traced", t1.front(), specs.size(), res);
  const RoundStats st = stats(traced);

  probe_fleet_layer(specs, kSliceSteps, res);
  probe_tenant(specs.front(), opt, res);

  // A slice materializes a run and advances it; every eviction adds a
  // checkpoint write and the matching rehydration a read.  The rest of the
  // slice is the scheduler's own.
  const double evictions_per_slice =
      static_cast<double>(t1.front().evictions) /
      static_cast<double>(t1.front().slice_ms.size());
  res.set("md.step_other_ms",
          mean(st.slice_ms) -
              (res.value("fleet.materialize_ms") + res.value("fleet.advance_ms") +
               evictions_per_slice * (res.value("io.checkpoint_write_ms") +
                                      res.value("io.checkpoint_read_ms"))),
          "ms");
  res.set("fleet.evictions", static_cast<double>(t1.front().evictions),
          "count");
  res.set("util.speedup_t4", s4.steps_per_s / s1.steps_per_s, "x");
  res.set("obs.trace_overhead_frac", 1.0 - st.steps_per_s / s1.steps_per_s,
          "ratio");
  return res;
}

}  // namespace perfbench
