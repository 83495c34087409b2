#include "md/simulation.hpp"

#include <cmath>
#include <string>

#include "ff/nonbonded_simd.hpp"
#include "math/units.hpp"
#include "md/engine_api.hpp"
#include "md/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace antmd::md {

// The reference engine must itself honor the contract generic layers
// (Supervisor, observer plumbing) constrain on.
static_assert(EngineApi<Simulation>);

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

}  // namespace

double potential_energy(const ForceField& ff, std::span<const Vec3> positions,
                        const Box& box, double time) {
  const Topology& topo = ff.topology();
  std::vector<Vec3> pos(positions.begin(), positions.end());
  ff::construct_virtual_sites(topo.virtual_sites(), pos, box);

  NeighborList list(topo, ff.model().cutoff, 0.0);
  list.build(pos, box);

  ForceResult res(topo.atom_count());
  ff.compute_bonded(pos, box, time, res);
  ff.compute_nonbonded(list.pairs(), pos, box, res);
  if (ff.has_kspace()) {
    // A solver gridded for `box`: the field's own solver is gridded for
    // the box it last saw, and a trial box needs its own grid.
    GseSolver solver(box, ff.gse()->params());
    solver.compute(pos, ff.kspace_charges(), ff.excluded_pairs(), box, res);
  }
  return res.energy.total();
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
  if (!(neighbor_skin >= 0)) {
    throw ConfigError("neighbor_skin must be >= 0, got " +
                            std::to_string(neighbor_skin));
  }
  if (!ff::cluster_width_supported(cluster_width)) {
    throw ConfigError("cluster_width must be 4 or 8, got " +
                      std::to_string(cluster_width));
  }
}

Simulation::Simulation(ForceField& ff, std::vector<Vec3> positions, Box box,
                       SimulationConfig config)
    // validate() before any member uses config fields (neighbor list, dt).
    : ff_((config.validate(), &ff)),
      config_(config),
      dt_(units::fs_to_internal(config.dt_fs)),
      nlist_(ff.topology(), ff.model().cutoff, config.neighbor_skin,
             config.nonbonded_kernel == ff::NonbondedKernel::kCluster,
             config.cluster_width),
      constraints_(ff.topology(), 1e-8, 500,
                   config.constraint_algorithm),
      thermostat_(ff.topology(), config.thermostat),
      current_(positions.size()),
      kspace_cache_(positions.size()),
      exec_(ExecutionContext::create(config.execution)) {
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

  ff_->on_box_changed(state_.box);
  if (config.barostat.kind != BarostatKind::kNone) {
    barostat_.emplace(topo, config.barostat,
                      [this](std::span<const Vec3> pos, const Box& b) {
                        return md::potential_energy(*ff_, pos, b,
                                                    state_.time);
                      });
  }

  ff::construct_virtual_sites(topo.virtual_sites(), state_.positions,
                              state_.box);
  nlist_.set_execution(exec_);
  nlist_.build(state_.positions, state_.box);
  if (nlist_.cluster_mode()) build_step_graph();
  compute_forces(/*kspace_due=*/true);
}

void Simulation::build_step_graph() {
  // The step's force work as a DAG.  Dependency structure encodes the data
  // flow: bonded and kspace only need final positions (virtual sites), the
  // tile kernel also needs the neighbor list; so on rebuild steps bonded and
  // kspace overlap the rebuild instead of waiting behind it.  All
  // order-sensitive arithmetic — ascending-chunk virial merge, kspace cache
  // fold, virtual-site force spread — lives in the single reduction task,
  // which is why the result is bit-identical at any lane count *and* to the
  // sequential compute_forces() path used by recompute callers.
  step_graph_ = std::make_unique<util::TaskGraph>(exec_->runtime(), "md.step");
  util::TaskGraph& g = *step_graph_;
  const bool have_vsites = !ff_->topology().virtual_sites().empty();

  const util::TaskId t_nlist = g.add("md.nlist", [this] {
    nlist_.update(state_.positions, state_.box);
  });
  // Tasks that read final positions: behind vsite construction when there
  // are virtual sites (which must in turn see the neighbor list's view of
  // the previous vsite positions, as the sequential path does), unblocked
  // from the start otherwise.
  std::vector<util::TaskId> after_pos;
  util::TaskId t_list_ready = t_nlist;
  if (have_vsites) {
    const util::TaskId t_vsites = g.add(
        "md.vsites",
        [this] {
          ff::construct_virtual_sites(ff_->topology().virtual_sites(),
                                      state_.positions, state_.box);
        },
        {t_nlist});
    after_pos = {t_vsites};
    t_list_ready = t_vsites;
  }

  const util::TaskId t_bonded = g.add(
      "md.bonded",
      [this] {
        if (!graph_include_bonded_) return;
        obs::ScopedTimer timer(md_metrics().bonded_ns);
        ff_->compute_bonded(state_.positions, state_.box, state_.time,
                            *graph_sink_);
      },
      after_pos);

  // Reciprocal space as its stage chain (stencil → spread → FFT → convolve
  // → inverse FFT → interpolate → finish), fanned out beside the tiles.
  // Systems without k-space get no stages at all.
  std::vector<util::TaskId> reduce_deps = {t_bonded};
  if (ff_->has_kspace()) {
    reduce_deps.push_back(ff_->gse()->append_stages(
        g,
        [this]() -> std::optional<GseInput> {
          if (!graph_kspace_due_) return std::nullopt;
          kspace_cache_.reset(ff_->topology().atom_count());
          return GseInput{state_.positions,     ff_->kspace_charges(),
                          ff_->excluded_pairs(), state_.box,
                          &kspace_cache_,        &md_metrics().kspace_ns};
        },
        after_pos));
  }

  const util::TaskId t_gather = g.add(
      "md.nb.gather",
      [this] {
        obs::ScopedTimer timer(md_metrics().nonbonded_ns);
        const ff::ClusterPairList& list = nlist_.clusters();
        ff::gather_cluster_coords(list, state_.positions);
        nb_plan_ = ff::cluster_chunk_plan(list);
        ff::prepare_cluster_scratch(list, step_graph_->lanes(),
                                    ff_->topology().atom_count(), nb_plan_);
      },
      {t_list_ready});

  reduce_deps.push_back(g.add_parallel(
      "md.nonbonded", [this] { return nb_plan_.chunks; },
      [this](size_t chunk) {
        obs::ScopedTimer timer(md_metrics().nonbonded_ns);
        ff::compute_clusters_chunk(nlist_.clusters(), ff_->tables(),
                                   state_.box, nb_plan_, chunk,
                                   util::TaskRuntime::current_lane(),
                                   ff_->vdw_scale(),
                                   ff_->charge_product_scale());
      },
      {t_gather}));

  g.add_reduction(
      "md.reduce",
      [this] {
        ff::reduce_cluster_chunks(nlist_.clusters(), nb_plan_, *graph_sink_);
        graph_sink_->merge(kspace_cache_);
        ff::spread_virtual_site_forces(ff_->topology().virtual_sites(),
                                       state_.positions, state_.box,
                                       graph_sink_->forces);
        // Force-poison injection point, deliberately inside the graph: the
        // reduction runs on whichever lane picks it up, so a kNanForce plan
        // fires from a worker thread — the fault registry's thread-safety
        // contract — while the one-poll-per-evaluation cadence matches the
        // sequential compute_forces() path exactly.
        uint64_t poison_atom = 0;
        if (fault::should_fire(fault::FaultKind::kNanForce, &poison_atom)) {
          const size_t n = ff_->topology().atom_count();
          graph_sink_->forces.set_quanta(
              poison_atom % n, {fault::kPoisonQuanta, fault::kPoisonQuanta,
                                fault::kPoisonQuanta});
        }
        if (obs::enabled()) {
          md_metrics().nonbonded_kernel.set(1.0);
          md_metrics().cluster_fill.set(nlist_.clusters().fill_ratio());
        }
      },
      reduce_deps);
}

void Simulation::run_force_graph(ForceResult& sink, bool include_bonded,
                                 bool kspace_due) {
  const size_t n = ff_->topology().atom_count();
  graph_sink_ = &sink;
  graph_include_bonded_ = include_bonded;
  graph_kspace_due_ = kspace_due;
  sink.reset(n);
  step_graph_->run();
}

void Simulation::notify_observers() { notify_step(*this, observers_, wall_); }

void Simulation::compute_nonbonded_into(ForceResult& out) {
  if (nlist_.cluster_mode()) {
    ff_->compute_nonbonded_clusters(nlist_.clusters(), state_.positions,
                                    state_.box, out, exec_.get());
  } else {
    ff_->compute_nonbonded(nlist_.pairs(), state_.positions, state_.box, out);
  }
  if (obs::enabled()) {
    md_metrics().nonbonded_kernel.set(nlist_.cluster_mode() ? 1.0 : 0.0);
    if (nlist_.cluster_mode()) {
      md_metrics().cluster_fill.set(nlist_.clusters().fill_ratio());
      md_metrics().nonbonded_isa.set(
          static_cast<double>(ff::active_kernel_isa()));
    }
  }
}

void Simulation::compute_forces(bool kspace_due) {
  const Topology& topo = ff_->topology();
  const size_t n = topo.atom_count();

  ff::construct_virtual_sites(topo.virtual_sites(), state_.positions,
                              state_.box);
  current_.reset(n);
  {
    obs::TracePhase phase("md.bonded", "md", &md_metrics().bonded_ns);
    ff_->compute_bonded(state_.positions, state_.box, state_.time, current_);
  }
  {
    obs::TracePhase phase("md.nonbonded", "md", &md_metrics().nonbonded_ns);
    compute_nonbonded_into(current_);
  }
  if (kspace_due && ff_->has_kspace()) {
    obs::TracePhase phase("md.kspace", "md", &md_metrics().kspace_ns);
    kspace_cache_.reset(n);
    ff_->compute_kspace(state_.positions, state_.box, kspace_cache_);
  }
  current_.merge(kspace_cache_);
  ff::spread_virtual_site_forces(topo.virtual_sites(), state_.positions,
                                 state_.box, current_.forces);

  uint64_t poison_atom = 0;
  if (fault::should_fire(fault::FaultKind::kNanForce, &poison_atom)) {
    current_.forces.set_quanta(
        poison_atom % n,
        {fault::kPoisonQuanta, fault::kPoisonQuanta, fault::kPoisonQuanta});
  }
}

void Simulation::compute_fast_forces() {
  const Topology& topo = ff_->topology();
  ff::construct_virtual_sites(topo.virtual_sites(), state_.positions,
                              state_.box);
  fast_.reset(topo.atom_count());
  {
    obs::TracePhase phase("md.bonded", "md", &md_metrics().bonded_ns);
    ff_->compute_bonded(state_.positions, state_.box, state_.time, fast_);
  }
  ff::spread_virtual_site_forces(topo.virtual_sites(), state_.positions,
                                 state_.box, fast_.forces);
}

void Simulation::compute_slow_forces(bool kspace_due) {
  const Topology& topo = ff_->topology();
  ff::construct_virtual_sites(topo.virtual_sites(), state_.positions,
                              state_.box);
  slow_.reset(topo.atom_count());
  {
    obs::TracePhase phase("md.nonbonded", "md", &md_metrics().nonbonded_ns);
    compute_nonbonded_into(slow_);
  }
  if (kspace_due && ff_->has_kspace()) {
    obs::TracePhase phase("md.kspace", "md", &md_metrics().kspace_ns);
    kspace_cache_.reset(topo.atom_count());
    ff_->compute_kspace(state_.positions, state_.box, kspace_cache_);
  }
  slow_.merge(kspace_cache_);
  ff::spread_virtual_site_forces(topo.virtual_sites(), state_.positions,
                                 state_.box, slow_.forces);

  uint64_t poison_atom = 0;
  if (fault::should_fire(fault::FaultKind::kNanForce, &poison_atom)) {
    slow_.forces.set_quanta(
        poison_atom % topo.atom_count(),
        {fault::kPoisonQuanta, fault::kPoisonQuanta, fault::kPoisonQuanta});
  }
}

void Simulation::step_respa() {
  const Topology& topo = ff_->topology();
  const size_t n = topo.atom_count();
  const auto& masses = topo.masses();
  const int n_inner = config_.respa_inner;
  const double dtf = dt_ / static_cast<double>(n_inner);

  // Slow and fast forces at the current positions (slow_ is maintained
  // across steps; fast_ is refreshed by the inner loop's last iteration).
  // Outer half kick with the slow forces.
  {
    obs::ScopedTimer timer(md_metrics().integrate_ns);
    for (size_t i = 0; i < n; ++i) {
      if (masses[i] == 0.0) continue;
      state_.velocities[i] +=
          (dt_ / (2.0 * masses[i])) * slow_.forces.force(i);
    }
  }

  // Inner velocity-Verlet loop with the fast (bonded) forces.
  for (int k = 0; k < n_inner; ++k) {
    {
      obs::ScopedTimer timer(md_metrics().integrate_ns);
      for (size_t i = 0; i < n; ++i) {
        if (masses[i] == 0.0) continue;
        state_.velocities[i] +=
            (dtf / (2.0 * masses[i])) * fast_.forces.force(i);
      }
      scratch_before_ = state_.positions;
      for (size_t i = 0; i < n; ++i) {
        if (masses[i] == 0.0) continue;
        state_.positions[i] += dtf * state_.velocities[i];
      }
    }
    if (!constraints_.empty()) {
      obs::TracePhase phase("md.constraints", "md",
                            &md_metrics().constraints_ns);
      constraints_.apply_positions(scratch_before_, state_.positions,
                                   state_.velocities, dtf, state_.box);
    }
    compute_fast_forces();
    {
      obs::ScopedTimer timer(md_metrics().integrate_ns);
      for (size_t i = 0; i < n; ++i) {
        if (masses[i] == 0.0) continue;
        state_.velocities[i] +=
            (dtf / (2.0 * masses[i])) * fast_.forces.force(i);
      }
    }
    if (!constraints_.empty()) {
      obs::TracePhase phase("md.constraints", "md",
                            &md_metrics().constraints_ns);
      constraints_.apply_velocities(state_.positions, state_.velocities,
                                    state_.box);
    }
  }

  // Slow forces at the new positions; outer half kick.
  const bool kspace_due =
      (state_.step + 1) % static_cast<uint64_t>(config_.kspace_interval) == 0;
  if (step_graph_) {
    run_force_graph(slow_, /*include_bonded=*/false, kspace_due);
  } else {
    nlist_.update(state_.positions, state_.box);
    compute_slow_forces(kspace_due);
  }
  {
    obs::ScopedTimer timer(md_metrics().integrate_ns);
    for (size_t i = 0; i < n; ++i) {
      if (masses[i] == 0.0) continue;
      state_.velocities[i] +=
          (dt_ / (2.0 * masses[i])) * slow_.forces.force(i);
    }
  }
  if (!constraints_.empty()) {
    obs::TracePhase phase("md.constraints", "md",
                          &md_metrics().constraints_ns);
    constraints_.apply_velocities(state_.positions, state_.velocities,
                                  state_.box);
  }

  // Combined result for observers.
  current_.reset(n);
  current_.merge(fast_);
  current_.merge(slow_);

  state_.step += 1;
  state_.time += dt_;
  thermostat_.apply(state_, dt_);
  if (config_.com_removal_interval > 0 &&
      state_.step % static_cast<uint64_t>(config_.com_removal_interval) ==
          0) {
    remove_com_momentum(topo, state_);
  }
  notify_observers();
}

void Simulation::step() {
  const double step_start_us = obs::enabled() ? obs::now_us() : 0.0;
  if (config_.respa_inner > 1) {
    // Lazily seed the split caches on first use.
    if (fast_.forces.size() != ff_->topology().atom_count()) {
      compute_fast_forces();
      compute_slow_forces(true);
    }
    step_respa();
    md_metrics().steps.add();
    if (obs::enabled()) {
      md_metrics().step_us.observe(obs::now_us() - step_start_us);
    }
    return;
  }
  const Topology& topo = ff_->topology();
  const size_t n = topo.atom_count();
  const auto& masses = topo.masses();

  // Half kick + drift.
  {
    obs::ScopedTimer timer(md_metrics().integrate_ns);
    for (size_t i = 0; i < n; ++i) {
      double m = masses[i];
      if (m == 0.0) continue;
      state_.velocities[i] += (dt_ / (2.0 * m)) * current_.forces.force(i);
    }
    scratch_before_ = state_.positions;
    for (size_t i = 0; i < n; ++i) {
      if (masses[i] == 0.0) continue;
      state_.positions[i] += dt_ * state_.velocities[i];
    }
  }

  // Constrain positions (and fold the impulse into velocities).
  if (!constraints_.empty()) {
    obs::TracePhase phase("md.constraints", "md",
                          &md_metrics().constraints_ns);
    constraints_.apply_positions(scratch_before_, state_.positions,
                                 state_.velocities, dt_, state_.box);
  }

  // Neighbor list & forces at the new positions.  Cluster mode runs the
  // phase-overlapped step graph (bit-identical to the sequential path); the
  // reference pair kernel keeps the sequential orchestration.
  const bool kspace_due =
      (state_.step + 1) % static_cast<uint64_t>(config_.kspace_interval) == 0;
  if (step_graph_) {
    run_force_graph(current_, /*include_bonded=*/true, kspace_due);
  } else {
    nlist_.update(state_.positions, state_.box);
    compute_forces(kspace_due);
  }

  // Second half kick.
  {
    obs::ScopedTimer timer(md_metrics().integrate_ns);
    for (size_t i = 0; i < n; ++i) {
      double m = masses[i];
      if (m == 0.0) continue;
      state_.velocities[i] += (dt_ / (2.0 * m)) * current_.forces.force(i);
    }
  }
  if (!constraints_.empty()) {
    obs::TracePhase phase("md.constraints", "md",
                          &md_metrics().constraints_ns);
    constraints_.apply_velocities(state_.positions, state_.velocities,
                                  state_.box);
  }

  state_.step += 1;
  state_.time += dt_;

  thermostat_.apply(state_, dt_);

  if (barostat_) {
    if (barostat_->maybe_apply_tensor(state_, current_.virial)) {
      ff_->on_box_changed(state_.box);
      nlist_.build(state_.positions, state_.box);
      compute_forces(/*kspace_due=*/true);
    }
  }

  if (config_.com_removal_interval > 0 &&
      state_.step % static_cast<uint64_t>(config_.com_removal_interval) ==
          0) {
    remove_com_momentum(topo, state_);
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

void Simulation::invalidate_forces() {
  ff_->on_box_changed(state_.box);
  nlist_.build(state_.positions, state_.box);
  compute_forces(/*kspace_due=*/true);
}

void Simulation::set_timestep_fs(double dt_fs) {
  if (!(dt_fs > 0)) {
    throw ConfigError("timestep must be positive, got dt_fs=" +
                            std::to_string(dt_fs));
  }
  config_.dt_fs = dt_fs;
  dt_ = units::fs_to_internal(dt_fs);
}

void Simulation::save_checkpoint(util::BinaryWriter& out) const {
  write_state(out, state_);
  out.write_f64(dt_);
  thermostat_.save_state(out);
  out.write_bool(barostat_.has_value());
  if (barostat_) barostat_->save_state(out);
  write_force_result(out, kspace_cache_);
}

void Simulation::restore_checkpoint(util::BinaryReader& in) {
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
  bool has_barostat = in.read_bool();
  if (has_barostat != barostat_.has_value()) {
    throw IoError("checkpoint barostat state does not match config");
  }
  if (barostat_) barostat_->restore_state(in);
  read_force_result(in, kspace_cache_);
  if (kspace_cache_.forces.size() != topo.atom_count()) {
    throw IoError("checkpoint k-space cache has wrong atom count");
  }

  state_ = std::move(restored);
  dt_ = dt;
  config_.dt_fs = units::internal_to_fs(dt);

  // Rebuild everything derived from positions/box.  Forces are recomputed
  // rather than stored: the nonbonded kernel zeroes beyond-cutoff pairs, so
  // a freshly built neighbor list gives bit-identical sums, and the k-space
  // term comes from the restored cache (kspace_due=false).
  ff_->on_box_changed(state_.box);
  nlist_.build(state_.positions, state_.box);
  if (config_.respa_inner > 1) {
    // Re-seed the RESPA split caches exactly as they stood after the last
    // completed outer step.
    compute_fast_forces();
    compute_slow_forces(/*kspace_due=*/false);
    current_.reset(topo.atom_count());
    current_.merge(fast_);
    current_.merge(slow_);
  } else {
    compute_forces(/*kspace_due=*/false);
  }
}

}  // namespace antmd::md
