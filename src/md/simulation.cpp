#include "md/simulation.hpp"

#include <cmath>
#include <string>

#include "ff/nonbonded_simd.hpp"
#include "math/units.hpp"
#include "md/force_graph.hpp"
#include "md/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace antmd::md {

namespace {

// Cached registry handles for the per-phase instrumentation (the name
// lookup takes a mutex; the handles themselves are lock-free).
struct MdMetrics {
  obs::Counter& bonded_ns;
  obs::Counter& nonbonded_ns;
  obs::Counter& kspace_ns;
  obs::Counter& constraints_ns;
  obs::Counter& integrate_ns;
  obs::Counter& steps;
  obs::Histogram& step_us;
  obs::Gauge& nonbonded_kernel;  ///< 0 = pair, 1 = cluster
  obs::Gauge& cluster_fill;      ///< useful-lane fraction of the tile list
  obs::Gauge& nonbonded_isa;     ///< dispatched ff::KernelIsa (0 = scalar)
};

MdMetrics& md_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static MdMetrics m{
      reg.counter("md.bonded.time_ns"),
      reg.counter("md.nonbonded.time_ns"),
      reg.counter("md.kspace.time_ns"),
      reg.counter("md.constraints.time_ns"),
      reg.counter("md.integrate.time_ns"),
      reg.counter("md.step.count"),
      reg.histogram("md.step.wall_us",
                    {10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000,
                     300000, 1000000}),
      reg.gauge("md.sim.nonbonded.kernel"),
      reg.gauge("md.sim.nonbonded.cluster_fill"),
      reg.gauge("md.sim.nonbonded.isa")};
  return m;
}

// The host's slot plan over `list`: slot 0 holds the whole system's bonded
// terms — and every flat pair of a pair-mode list — then one slot per
// tile chunk.  Slot 0 merges first, so the bonded virial sums exactly
// as if the terms were added straight into the result, and the chunk
// boundaries depend on the tile count alone.  Returns the tile list the
// slots index (null in pair mode).
const ff::ClusterPairList* plan_host_slots(const ForceField& ff,
                                           const NeighborList& list,
                                           std::vector<ForceSlot>& slots) {
  const bool cluster = list.cluster_mode();
  slots.assign(1, ForceSlot{ff.bonded_terms(),
                            cluster ? std::span<const ff::PairEntry>{}
                                    : list.pairs(),
                            {}});
  if (!cluster) return nullptr;
  const ff::ClusterPairList& tiles = list.clusters();
  const util::ChunkPlan plan = ff::cluster_chunk_plan(tiles);
  const std::span<const ff::ClusterPairEntry> entries = tiles.entries;
  for (size_t c = 0; c < plan.chunks; ++c) {
    const size_t lo = plan.begin(c);
    slots.push_back({{}, {}, entries.subspan(lo, plan.end(c) - lo)});
  }
  return &tiles;
}

}  // namespace

double potential_energy(const ForceField& ff, std::span<const Vec3> positions,
                        const Box& box, double time) {
  const Topology& topo = ff.topology();
  std::vector<Vec3> pos(positions.begin(), positions.end());
  ff::construct_virtual_sites(topo.virtual_sites(), pos, box);

  NeighborList list(topo, ff.model().cutoff, 0.0, /*cluster_mode=*/true);
  list.build(pos, box);
  std::vector<ForceSlot> slots;
  const ff::ClusterPairList* tiles = plan_host_slots(ff, list, slots);

  ForceGraph graph(ff, nullptr,
                   {.graph = "md.energy",
                    .slots = "md.energy.slots",
                    .reduce = "md.energy.reduce"});
  ForceResult out(topo.atom_count());
  ForceResult kspace(topo.atom_count());
  graph.run({pos, box, time, ForceTerms::kAll, /*kspace_due=*/true, slots,
             tiles, &out, &kspace});
  return out.energy.total();
}

void SimulationConfig::validate() const {
  if (!(dt_fs > 0)) {
    throw ConfigError("timestep must be positive, got dt_fs=" +
                            std::to_string(dt_fs));
  }
  if (respa_inner < 1) {
    throw ConfigError("respa_inner must be >= 1, got " +
                            std::to_string(respa_inner));
  }
  if (kspace_interval < 1) {
    throw ConfigError("kspace_interval must be >= 1, got " +
                            std::to_string(kspace_interval));
  }
  if (respa_inner > 1 && barostat.kind != BarostatKind::kNone) {
    throw ConfigError(
        "a barostat needs the virial of one full evaluation per step, which "
        "RESPA's split passes do not produce: respa_inner must be 1 with a "
        "barostat, got " + std::to_string(respa_inner));
  }
  if (!(neighbor_skin >= 0)) {
    throw ConfigError("neighbor_skin must be >= 0, got " +
                            std::to_string(neighbor_skin));
  }
}

namespace {

// The host's force provider.  The neighbor list is updated first (its
// rebuild fans out over the lanes itself), then the force graph runs the
// host slot plan (plan_host_slots).
class StepGraphForces final : public ForceProvider {
 public:
  StepGraphForces(ForceField& ff, const SimulationConfig& config)
      : ff_(&ff),
        nlist_(ff.topology(), ff.model().cutoff, config.neighbor_skin,
               config.nonbonded_kernel == ff::NonbondedKernel::kCluster),
        runtime_(util::TaskRuntime::create(config.execution)),
        graph_(ff, runtime_,
               {.graph = "md.step",
                .slots = "md.nonbonded",
                .reduce = "md.reduce",
                .kspace_ns = &md_metrics().kspace_ns,
                .bonded_ns = &md_metrics().bonded_ns,
                .nonbonded_ns = &md_metrics().nonbonded_ns}) {
    nlist_.set_execution(runtime_);
  }

  void init(State& state, const SimulationConfig& /*config*/) override {
    ff::construct_virtual_sites(ff_->topology().virtual_sites(),
                                state.positions, state.box);
    nlist_.build(state.positions, state.box);
  }

  void rebuild(State& state) override {
    nlist_.build(state.positions, state.box);
  }

  void compute(State& state, const ForceRequest& request, ForceResult& out,
               ForceResult& kspace_cache) override {
    // The bonded-only pass integrates on the standing list.
    const bool nonbonded = request.terms != ForceTerms::kBonded;
    if (nonbonded) nlist_.update(state.positions, state.box);

    const ff::ClusterPairList* tiles = plan_host_slots(*ff_, nlist_, slots_);
    graph_.run({state.positions, state.box, state.time, request.terms,
                request.kspace_due, slots_, tiles, &out, &kspace_cache});
    if (!nonbonded) return;

    poll_force_fault(out);
    if (obs::enabled()) {
      md_metrics().nonbonded_kernel.set(tiles != nullptr ? 1.0 : 0.0);
      if (tiles != nullptr) {
        md_metrics().cluster_fill.set(tiles->fill_ratio());
        md_metrics().nonbonded_isa.set(
            static_cast<double>(ff::active_kernel_isa()));
      }
    }
  }

  [[nodiscard]] const NeighborList& neighbor_list() const override {
    return nlist_;
  }
  [[nodiscard]] util::TaskRuntime* runtime() const override {
    return runtime_.get();
  }

 private:
  ForceField* ff_;
  NeighborList nlist_;
  std::shared_ptr<util::TaskRuntime> runtime_;
  ForceGraph graph_;
  std::vector<ForceSlot> slots_;  ///< refreshed per evaluation
};

std::unique_ptr<ForceProvider> step_graph_forces(ForceField& ff,
                                                 const SimulationConfig& c) {
  c.validate();  // before the neighbor list sees the skin
  return std::make_unique<StepGraphForces>(ff, c);
}

}  // namespace

Simulation::Simulation(ForceField& ff, std::vector<Vec3> positions, Box box,
                       SimulationConfig config)
    : Simulation(ff, std::move(positions), box, config,
                 step_graph_forces(ff, config)) {}

Simulation::Simulation(ForceField& ff, std::vector<Vec3> positions, Box box,
                       SimulationConfig config,
                       std::unique_ptr<ForceProvider> provider)
    // validate() before any member uses config fields (dt, constraints).
    : ff_((config.validate(), &ff)),
      config_(config),
      dt_(units::fs_to_internal(config.dt_fs)),
      constraints_(ff.topology(), 1e-8, 500, config.constraint_algorithm),
      thermostat_(ff.topology(), config.thermostat),
      current_(positions.size()),
      kspace_cache_(positions.size()),
      provider_(std::move(provider)) {
  const Topology& topo = ff.topology();
  ANTMD_REQUIRE(positions.size() == topo.atom_count(),
                "positions/topology size mismatch");

  state_.positions = std::move(positions);
  state_.box = box;
  state_.velocities.assign(topo.atom_count(), Vec3{});
  if (config.init_temperature_k >= 0) {
    init_velocities(topo, config.init_temperature_k, config.velocity_seed,
                    state_);
  }

  if (config.barostat.kind != BarostatKind::kNone) {
    barostat_.emplace(topo, config.barostat,
                      [this](std::span<const Vec3> pos, const Box& b) {
                        return md::potential_energy(*ff_, pos, b,
                                                    state_.time);
                      });
  }
  provider_->init(state_, config_);
  compute(ForceTerms::kAll, /*kspace_due=*/true, current_);
}

void Simulation::compute(ForceTerms terms, bool kspace_due, ForceResult& out,
                         bool restore) {
  provider_->compute(state_, ForceRequest{terms, kspace_due, restore}, out,
                     kspace_cache_);
}

void Simulation::notify_observers() {
  // Build the StepInfo — and pay its O(N) reductions — only when an
  // observer is due.
  if (observers_.empty() || !observers_.due(state_.step)) return;
  StepInfo info;
  info.step = state_.step;
  info.time = state_.time;
  info.potential = potential_energy();
  info.kinetic = kinetic_energy();
  info.temperature = temperature();
  info.wall_seconds = wall_.seconds();
  observers_.notify(info);
}

void Simulation::half_kick(const ForceResult& f, double dt) {
  obs::ScopedTimer timer(md_metrics().integrate_ns);
  const auto& masses = ff_->topology().masses();
  for (size_t i = 0; i < masses.size(); ++i) {
    if (masses[i] == 0.0) continue;
    state_.velocities[i] += (dt / (2.0 * masses[i])) * f.forces.force(i);
  }
}

void Simulation::drift_and_constrain(double dt) {
  {
    obs::ScopedTimer timer(md_metrics().integrate_ns);
    const auto& masses = ff_->topology().masses();
    scratch_before_ = state_.positions;
    for (size_t i = 0; i < masses.size(); ++i) {
      if (masses[i] == 0.0) continue;
      state_.positions[i] += dt * state_.velocities[i];
    }
  }
  // Constrain positions (and fold the impulse into velocities).
  if (!constraints_.empty()) {
    obs::TracePhase phase("md.constraints", "md",
                          &md_metrics().constraints_ns);
    constraints_.apply_positions(scratch_before_, state_.positions,
                                 state_.velocities, dt, state_.box,
                                 provider_->runtime());
  }
}

void Simulation::constrain_velocities() {
  if (constraints_.empty()) return;
  obs::TracePhase phase("md.constraints", "md", &md_metrics().constraints_ns);
  constraints_.apply_velocities(state_.positions, state_.velocities,
                                state_.box, provider_->runtime());
}

void Simulation::advance_verlet(bool kspace_due) {
  half_kick(current_, dt_);
  drift_and_constrain(dt_);
  compute(ForceTerms::kAll, kspace_due, current_);
  half_kick(current_, dt_);
  constrain_velocities();
}

void Simulation::advance_respa(bool kspace_due) {
  // Slow forces (nonbonded + k-space) are kept across steps; fast (bonded)
  // forces are refreshed by the inner loop's last iteration.  The first
  // step seeds both.
  if (fast_.forces.size() != ff_->topology().atom_count()) {
    compute(ForceTerms::kBonded, /*kspace_due=*/false, fast_);
    compute(ForceTerms::kNonbonded, /*kspace_due=*/true, slow_);
  }
  const double dtf = dt_ / static_cast<double>(config_.respa_inner);

  // Outer half kick with the slow forces, an inner velocity-Verlet loop
  // with the fast ones, slow forces at the new positions, outer half kick.
  half_kick(slow_, dt_);
  for (int k = 0; k < config_.respa_inner; ++k) {
    half_kick(fast_, dtf);
    drift_and_constrain(dtf);
    compute(ForceTerms::kBonded, /*kspace_due=*/false, fast_);
    half_kick(fast_, dtf);
    constrain_velocities();
  }
  compute(ForceTerms::kNonbonded, kspace_due, slow_);
  half_kick(slow_, dt_);
  constrain_velocities();

  // Combined result for observers.
  current_.reset(ff_->topology().atom_count());
  current_.merge(fast_);
  current_.merge(slow_);
}

void Simulation::step() {
  const double step_start_us = obs::enabled() ? obs::now_us() : 0.0;
  const bool kspace_due =
      (state_.step + 1) % static_cast<uint64_t>(config_.kspace_interval) == 0;
  if (config_.respa_inner > 1) {
    advance_respa(kspace_due);
  } else {
    advance_verlet(kspace_due);
  }

  state_.step += 1;
  state_.time += dt_;
  thermostat_.apply(state_, dt_);

  // validate() admits a barostat on Verlet steps only: it reads the virial
  // of one full evaluation.
  if (barostat_ && barostat_->maybe_apply_tensor(state_, current_.virial)) {
    refresh_forces(/*restoring=*/false);
  }

  if (config_.com_removal_interval > 0 &&
      state_.step % static_cast<uint64_t>(config_.com_removal_interval) ==
          0) {
    remove_com_momentum(ff_->topology(), state_);
  }
  md_metrics().steps.add();
  if (obs::enabled()) {
    md_metrics().step_us.observe(obs::now_us() - step_start_us);
  }
  notify_observers();
}

void Simulation::run(size_t n) {
  for (size_t i = 0; i < n; ++i) step();
}

double Simulation::conserved_quantity() const {
  return potential_energy() + kinetic_energy() +
         thermostat_.reservoir_energy();
}

double Simulation::pressure_atm() const {
  return md::pressure_atm(ff_->topology(), state_, trace(current_.virial));
}

void Simulation::rescale_velocities(double factor) {
  for (auto& v : state_.velocities) v *= factor;
}

void Simulation::invalidate_forces() { refresh_forces(/*restoring=*/false); }

void Simulation::refresh_forces(bool restoring) {
  provider_->rebuild(state_);
  if (!restoring) {
    compute(ForceTerms::kAll, /*kspace_due=*/true, current_);
    return;
  }
  // Forces are recomputed rather than stored: the nonbonded kernels zero
  // beyond-cutoff pairs, so a freshly built neighbor list gives
  // bit-identical sums, and the k-space term comes from the restored cache.
  if (config_.respa_inner > 1) {
    // Re-seed the RESPA split caches exactly as they stood after the last
    // completed outer step.
    compute(ForceTerms::kBonded, false, fast_, /*restore=*/true);
    compute(ForceTerms::kNonbonded, false, slow_, /*restore=*/true);
    current_.reset(ff_->topology().atom_count());
    current_.merge(fast_);
    current_.merge(slow_);
  } else {
    compute(ForceTerms::kAll, false, current_, /*restore=*/true);
  }
}

void Simulation::set_timestep_fs(double dt_fs) {
  if (!(dt_fs > 0)) {
    throw ConfigError("timestep must be positive, got dt_fs=" +
                            std::to_string(dt_fs));
  }
  config_.dt_fs = dt_fs;
  dt_ = units::fs_to_internal(dt_fs);
}

void Simulation::write_physics(util::BinaryWriter& out,
                               bool barostat_block) const {
  write_state(out, state_);
  out.write_f64(dt_);
  thermostat_.save_state(out);
  if (barostat_block) {
    out.write_bool(barostat_.has_value());
    if (barostat_) barostat_->save_state(out);
  }
  write_force_result(out, kspace_cache_);
}

void Simulation::read_physics(util::BinaryReader& in, bool barostat_block) {
  const Topology& topo = ff_->topology();
  State restored = read_state(in);
  if (restored.positions.size() != topo.atom_count()) {
    throw IoError(
        "checkpoint was written for a different system: " +
        std::to_string(restored.positions.size()) + " atoms vs " +
        std::to_string(topo.atom_count()) + " in topology");
  }
  double dt = in.read_f64();
  thermostat_.restore_state(in);
  if (barostat_block) {
    bool has_barostat = in.read_bool();
    if (has_barostat != barostat_.has_value()) {
      throw IoError("checkpoint barostat state does not match config");
    }
    if (barostat_) barostat_->restore_state(in);
  }
  read_force_result(in, kspace_cache_);
  if (kspace_cache_.forces.size() != topo.atom_count()) {
    throw IoError("checkpoint k-space cache has wrong atom count");
  }

  state_ = std::move(restored);
  dt_ = dt;
  config_.dt_fs = units::internal_to_fs(dt);
}

void Simulation::save_checkpoint(util::BinaryWriter& out) const {
  write_physics(out, /*barostat_block=*/true);
}

void Simulation::restore_checkpoint(util::BinaryReader& in) {
  read_physics(in, /*barostat_block=*/true);
  refresh_forces(/*restoring=*/true);
}

}  // namespace antmd::md
