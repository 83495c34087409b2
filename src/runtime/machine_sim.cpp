#include "runtime/machine_sim.hpp"

#include <memory>
#include <string>

#include "ff/nonbonded_simd.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace antmd::runtime {

namespace {

struct MachineMetrics {
  obs::Gauge& step_seconds;
  obs::Gauge& total_seconds;
  obs::Gauge& ns_day;
  obs::Gauge& htis_util;
  obs::Gauge& gc_util;
  obs::Gauge& net_fraction;
  obs::Gauge& cluster_fill;
  obs::Gauge& pair_masked_s;
  obs::Gauge& nonbonded_isa;  ///< dispatched ff::KernelIsa (0 = scalar)
  obs::Gauge& torus_mean_hops;
  obs::Gauge& torus_diameter;
  obs::Gauge& contention_multicast_s;
  obs::Gauge& contention_max_link_bytes;
  obs::Counter& transport_messages;
  obs::Counter& transport_retransmits;
  obs::Counter& transport_corrupt;
  obs::Counter& transport_drops;
  obs::Counter& transport_rerouted;
  obs::Gauge& transport_links_down;
  obs::Gauge& transport_reliability_s;
};

MachineMetrics& machine_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static MachineMetrics m{reg.gauge("machine.model.step_seconds"),
                          reg.gauge("machine.model.total_seconds"),
                          reg.gauge("machine.model.ns_per_day"),
                          reg.gauge("machine.model.htis_utilization"),
                          reg.gauge("machine.model.gc_utilization"),
                          reg.gauge("machine.model.network_fraction"),
                          reg.gauge("machine.model.cluster_fill"),
                          reg.gauge("machine.model.pair_masked_seconds"),
                          reg.gauge("machine.model.nonbonded_isa"),
                          reg.gauge("machine.torus.mean_hops"),
                          reg.gauge("machine.torus.diameter"),
                          reg.gauge("machine.contention.multicast_seconds"),
                          reg.gauge("machine.contention.max_link_bytes"),
                          reg.counter("machine.transport.message.count"),
                          reg.counter("machine.transport.retransmit.count"),
                          reg.counter("machine.transport.corrupt.count"),
                          reg.counter("machine.transport.drop.count"),
                          reg.counter("machine.transport.reroute.count"),
                          reg.gauge("machine.transport.links_down"),
                          reg.gauge("machine.transport.reliability_seconds")};
  return m;
}

void accumulate(machine::StepBreakdown& acc,
                const machine::StepBreakdown& step) {
  acc.multicast += step.multicast;
  acc.pair_phase += step.pair_phase;
  acc.pair_masked += step.pair_masked;
  acc.gc_force_phase += step.gc_force_phase;
  acc.interaction += step.interaction;
  acc.reduce += step.reduce;
  acc.update += step.update;
  acc.kspace_spread += step.kspace_spread;
  acc.kspace_fft_compute += step.kspace_fft_compute;
  acc.kspace_fft_comm += step.kspace_fft_comm;
  acc.kspace_convolve += step.kspace_convolve;
  acc.kspace_interp += step.kspace_interp;
  acc.tempering += step.tempering;
  acc.sync += step.sync;
  acc.reliability += step.reliability;
  acc.total += step.total;
}

}  // namespace

void MachineSimConfig::validate() const {
  md::SimulationConfig::validate();
  if (respa_inner > 1) {
    throw ConfigError(
        "the machine engine does not model RESPA: respa_inner must be 1, "
        "got " + std::to_string(respa_inner));
  }
  if (barostat.kind != md::BarostatKind::kNone) {
    throw ConfigError(
        "the machine engine does not model a barostat (its per-node virial "
        "merge is not bit-identical across node counts)");
  }
}

MachineForces::MachineForces(ForceField& ff,
                             const machine::MachineConfig& machine_cfg,
                             const MachineSimConfig& config)
    : timing_(machine_cfg),
      transport_(machine_cfg, config.transport),
      engine_(ff, machine_cfg, EngineOptions{.execution = config.execution}),
      nlist_(ff.topology(), ff.model().cutoff, config.neighbor_skin,
             config.nonbonded_kernel == ff::NonbondedKernel::kCluster) {
  nlist_.set_execution(engine_.execution());
}

void MachineForces::init(State& state, const md::SimulationConfig& config) {
  live_ = &config;
  rebuild(state);
}

void MachineForces::rebuild(State& state) {
  nlist_.build(state.positions, state.box);
  redistribute(state);
}

void MachineForces::compute(State& state, const md::ForceRequest& request,
                            ForceResult& out, ForceResult& kspace_cache) {
  ANTMD_REQUIRE(request.terms == md::ForceTerms::kAll,
                "the machine evaluates all force terms at once");
  // The node partitions hold copies of the field's terms: recopy them when
  // atoms migrate (a list rebuild) and when the field was mutated since
  // (a bias a sampling driver added after construction, say).
  if (nlist_.update(state.positions, state.box) || engine_.partitions_stale()) {
    redistribute(state);
  }
  machine::StepWork work =
      engine_.evaluate(state.positions, state.box, state.time,
                       request.kspace_due, out, kspace_cache);
  if (request.restore) return;
  charge(std::move(work));

  uint64_t poison_atom = 0;
  if (fault::should_fire(fault::FaultKind::kNanForce, &poison_atom)) {
    out.forces.set_quanta(
        poison_atom % out.forces.size(),
        {fault::kPoisonQuanta, fault::kPoisonQuanta, fault::kPoisonQuanta});
  }
}

void MachineForces::charge(machine::StepWork work) {
  work.tempering_decisions = pending_tempering_decisions_;
  pending_tempering_decisions_ = 0;
  const bool profiling = obs::profiling_enabled();
  machine::NetworkAttribution attr;
  last_breakdown_ = timing_.step_time(work, profiling ? &attr : nullptr);
  // Reliability protocol: every modeled message rides the transport, and
  // any retransmit/backoff/reroute/hang cost lands in the step breakdown —
  // modeled time only, never the physics.
  last_delivery_ = transport_.deliver(work);
  last_breakdown_.reliability = last_delivery_.extra_s;
  last_breakdown_.total += last_delivery_.extra_s;
  accumulate(accumulated_, last_breakdown_);
  modeled_time_s_ += last_breakdown_.total;
  ++steps_timed_;

  if (obs::enabled() || profiling) {
    publish_model_metrics(work, profiling ? &attr : nullptr);
  }
}

// Publishes the modeled-performance picture for the step just timed.  Reads
// only derived quantities (breakdowns, torus geometry, link loads) — never
// writes back into the simulation, so telemetry cannot change a trajectory.
// `attr` is non-null only under attribution profiling; one contention pass
// serves both the gauges and the profiler's per-link feed.
void MachineForces::publish_model_metrics(
    const machine::StepWork& work, const machine::NetworkAttribution* attr) {
  auto& m = machine_metrics();
  m.step_seconds.set(last_breakdown_.total);
  m.total_seconds.set(modeled_time_s_);
  m.ns_day.set(ns_per_day());
  m.htis_util.set(last_breakdown_.htis_utilization());
  m.gc_util.set(last_breakdown_.gc_utilization());
  m.net_fraction.set(last_breakdown_.network_fraction());
  if (nlist_.cluster_mode()) {
    m.cluster_fill.set(nlist_.clusters().fill_ratio());
    m.pair_masked_s.set(last_breakdown_.pair_masked);
    m.nonbonded_isa.set(static_cast<double>(ff::active_kernel_isa()));
  }

  const auto& torus = engine_.torus();
  if (torus_mean_hops_ < 0) torus_mean_hops_ = torus.mean_hops();
  m.torus_mean_hops.set(torus_mean_hops_);
  m.torus_diameter.set(static_cast<double>(torus.diameter()));

  if (!contention_model_) {
    contention_model_ =
        std::make_unique<machine::LinkContentionModel>(timing_.config());
  }
  // Degraded links reroute in the contention picture too.
  contention_model_->set_down_links(transport_.down_links());
  auto contention = contention_model_->multicast_time(
      work.nodes, attr ? &link_scratch_ : nullptr);
  m.contention_multicast_s.set(contention.phase_time_s);
  m.contention_max_link_bytes.set(contention.max_link_bytes);

  if (attr) feed_profile(*attr);

  const auto& ts = transport_.stats();
  m.transport_messages.add(last_delivery_.messages);
  m.transport_retransmits.add(last_delivery_.retransmits);
  m.transport_corrupt.add(last_delivery_.corrupt_detected);
  m.transport_drops.add(last_delivery_.drops);
  m.transport_rerouted.add(last_delivery_.rerouted);
  m.transport_links_down.set(
      static_cast<double>(transport_.down_link_count()));
  m.transport_reliability_s.set(ts.reliability_s);
}

// Feeds the attribution profiler for the step just timed (profiling only).
// Each message class mirrors its StepBreakdown field with the same per-step
// `+=` sequence the aggregate uses, so class sums stay bit-exact against
// accumulated().network_total() (profile_test).
void MachineForces::feed_profile(const machine::NetworkAttribution& attr) {
  obs::Profile& p = profile_ ? *profile_ : obs::Profile::global();

  obs::NetSample s;
  s.total_s = last_breakdown_.multicast;
  s.serialization_s = attr.multicast.serialization;
  s.queueing_s = attr.multicast.queueing;
  s.contention_s = attr.multicast.contention;
  s.messages = attr.multicast_messages;
  s.bytes = attr.multicast_bytes;
  p.record_network(obs::MessageClass::kPositionMulticast, s);

  s = {};
  s.total_s = last_breakdown_.reduce;
  s.serialization_s = attr.reduce.serialization;
  s.queueing_s = attr.reduce.queueing;
  s.contention_s = attr.reduce.contention;
  s.bytes = attr.reduce_bytes;
  p.record_network(obs::MessageClass::kForceReduction, s);

  s = {};
  s.total_s = last_breakdown_.kspace_fft_comm;
  s.serialization_s = attr.kspace_fft.serialization;
  s.queueing_s = attr.kspace_fft.queueing;
  s.contention_s = attr.kspace_fft.contention;
  s.messages = attr.kspace_messages;
  s.bytes = attr.kspace_bytes;
  p.record_network(obs::MessageClass::kKspaceFft, s);

  // The barrier is pure topology latency; the reliability class is pure
  // protocol overhead (its retransmitted bytes are already charged there).
  s = {};
  s.total_s = last_breakdown_.sync;
  s.contention_s = last_breakdown_.sync;
  p.record_network(obs::MessageClass::kBarrierSync, s);

  s = {};
  s.total_s = last_breakdown_.reliability;
  s.reliability_s = last_breakdown_.reliability;
  s.messages = last_delivery_.retransmits + last_delivery_.rerouted;
  p.record_network(obs::MessageClass::kReliability, s);

  p.record_transport(last_delivery_.retransmits, last_delivery_.rerouted,
                     last_delivery_.corrupt_detected, last_delivery_.drops);

  const auto& torus = engine_.torus();
  if (link_scratch_.size() == torus.link_count()) {
    static obs::Histogram& link_hist = obs::MetricsRegistry::global().histogram(
        "machine.link.step_bytes", {1e2, 1e3, 1e4, 1e5, 1e6, 1e7});
    for (double b : link_scratch_) {
      if (b > 0.0) link_hist.observe(b);
    }
    p.record_links(link_scratch_);
    if (!link_labels_fed_) {
      link_labels_fed_ = true;
      std::vector<std::string> labels(torus.link_count());
      for (size_t l = 0; l < labels.size(); ++l) {
        const size_t src = torus.link_source(l);
        const auto c = torus.coord_of(src);
        labels[l] = "n" + std::to_string(src) + "(" + std::to_string(c[0]) +
                    "," + std::to_string(c[1]) + "," + std::to_string(c[2]) +
                    ")." + "xyz"[torus.link_axis(l)] +
                    (torus.link_sign(l) > 0 ? "+" : "-");
      }
      p.set_link_labels(std::move(labels));
    }
  }
  p.record_step();
}

double MachineForces::ns_per_day() const {
  const double mean = mean_step_time_s();
  if (mean <= 0) return 0.0;
  return machine::ns_per_day(live_->dt_fs, mean);
}

namespace {

std::unique_ptr<MachineForces> machine_forces(
    ForceField& ff, const machine::MachineConfig& machine_cfg,
    const MachineSimConfig& config) {
  config.validate();  // before any member is built
  return std::make_unique<MachineForces>(ff, machine_cfg, config);
}

}  // namespace

MachineSimulation::MachineSimulation(ForceField& ff,
                                     machine::MachineConfig machine_cfg,
                                     std::vector<Vec3> positions, Box box,
                                     MachineSimConfig config)
    : md::Simulation(ff, std::move(positions), box, config,
                     machine_forces(ff, machine_cfg, config)),
      machine_(static_cast<MachineForces&>(provider())) {}

void MachineSimulation::save_checkpoint(util::BinaryWriter& out) const {
  save_physics_checkpoint(out);
  // Modeled-performance accumulators, so a resumed run reports the same
  // totals as an uninterrupted one.
  out.write_f64(machine_.modeled_time_s_);
  out.write_u64(machine_.steps_timed_);
  out.write_pod(machine_.accumulated_);
  out.write_pod(machine_.last_breakdown_);
  // Transport reliability state: down-marked links persist (a dead wire
  // stays dead across a restart) and the cumulative protocol counters keep
  // the resumed run's reliability picture identical to an uninterrupted one.
  std::vector<char> down;
  machine::TransportStats tstats;
  machine_.transport_.save_state(down, tstats);
  out.write_pod_vector(down);
  out.write_pod(tstats);
}

void MachineSimulation::restore_checkpoint(util::BinaryReader& in) {
  read_physics(in, /*barostat_block=*/false);
  machine_.modeled_time_s_ = in.read_f64();
  machine_.steps_timed_ = in.read_u64();
  machine_.accumulated_ = in.read_pod<machine::StepBreakdown>();
  machine_.last_breakdown_ = in.read_pod<machine::StepBreakdown>();
  std::vector<char> down = in.read_pod_vector<char>();
  auto tstats = in.read_pod<machine::TransportStats>();
  machine_.transport_.restore_state(std::move(down), tstats);
  machine_.last_delivery_ = machine::StepDelivery{};
  // Rebuild the distributed picture at the restored positions and recompute
  // forces, free of modeled-time charges so the performance accumulators
  // stay faithful to the original run.
  refresh_forces(/*restoring=*/true);
}

}  // namespace antmd::runtime
