#include "sampling/fep.hpp"

#include <cmath>

#include "analysis/free_energy.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace antmd::sampling {

FepDecoupling::FepDecoupling(const SystemSpec& spec, uint32_t solute_type,
                             ff::NonbondedModel model, FepConfig config)
    : spec_(&spec),
      solute_type_(solute_type),
      model_(model),
      config_(std::move(config)) {
  ANTMD_REQUIRE(config_.lambdas.size() >= 2, "need >= 2 lambda windows");
  ANTMD_REQUIRE(solute_type < spec.topology.type_count(),
                "unknown solute type");
}

std::unique_ptr<ForceField> FepDecoupling::make_field(double lambda) const {
  auto field = std::make_unique<ForceField>(spec_->topology, model_);
  const auto& types = spec_->topology.types();
  const LjType& solute = types[solute_type_];
  for (uint32_t t = 0; t < types.size(); ++t) {
    if (t == solute_type_) continue;  // solute-solute stays fully coupled
    double sigma = 0.5 * (solute.sigma + types[t].sigma);
    double epsilon = std::sqrt(solute.epsilon * types[t].epsilon);
    if (sigma == 0.0 || epsilon == 0.0) continue;
    field->set_custom_pair_table(
        solute_type_, t,
        ff::make_softcore_lj_table(sigma, epsilon, lambda,
                                   config_.softcore_alpha, model_));
  }
  return field;
}

FepResult FepDecoupling::run() {
  // Fresh ladder: discard any resumable progress and run every window.
  windows_done_ = 0;
  sampled_.clear();
  seed_positions_.clear();
  run_windows(config_.lambdas.size());
  return finalize();
}

size_t FepDecoupling::run_windows(size_t count) {
  auto& reg = obs::MetricsRegistry::global();
  static auto& window_count = reg.counter("sampling.fep.window.count");
  static auto& sample_count = reg.counter("sampling.fep.sample.count");
  static auto& windows_done_gauge = reg.gauge("sampling.fep.windows_done");
  const size_t n_win = config_.lambdas.size();
  if (seed_positions_.empty()) seed_positions_ = spec_->positions;

  size_t ran = 0;
  for (; ran < count && windows_done_ < n_win; ++ran) {
    const size_t w = windows_done_;
    const double lambda = config_.lambdas[w];
    FepWindowSamples window;
    window.lambda = lambda;

    auto field = make_field(lambda);
    std::unique_ptr<ForceField> field_next =
        w + 1 < n_win ? make_field(config_.lambdas[w + 1]) : nullptr;
    std::unique_ptr<ForceField> field_prev =
        w > 0 ? make_field(config_.lambdas[w - 1]) : nullptr;

    md::Simulation sim(*field, seed_positions_, spec_->box, config_.md);
    sim.run(config_.equil_steps);

    for (size_t s = 0; s < config_.prod_steps; ++s) {
      sim.step();
      if (sim.state().step %
              static_cast<uint64_t>(config_.sample_interval) !=
          0) {
        continue;
      }
      sample_count.add();
      double u_here = sim.potential_energy();
      const auto& pos = sim.state().positions;
      if (field_next) {
        double u_next =
            md::potential_energy(*field_next, pos, sim.state().box);
        window.du_to_next.push_back(u_next - u_here);
      }
      if (field_prev) {
        double u_prev =
            md::potential_energy(*field_prev, pos, sim.state().box);
        window.du_to_prev.push_back(u_prev - u_here);
      }
    }
    // Seed the next window from this window's endpoint (stratified start).
    seed_positions_ = sim.state().positions;
    sampled_.push_back(std::move(window));
    ++windows_done_;
    window_count.add();
    if (obs::enabled()) {
      windows_done_gauge.set(static_cast<double>(windows_done_));
    }
  }
  return ran;
}

FepResult FepDecoupling::finalize() const {
  FepResult result;
  result.windows = sampled_;

  double t_k = config_.md.thermostat.temperature_k;
  if (config_.md.thermostat.kind == md::ThermostatKind::kNone) {
    t_k = config_.md.init_temperature_k;
  }
  double bar_total = 0.0, zw_total = 0.0;
  for (size_t w = 0; w + 1 < sampled_.size(); ++w) {
    const auto& fwd = result.windows[w].du_to_next;
    const auto& rev = result.windows[w + 1].du_to_prev;
    zw_total += analysis::zwanzig_delta_f(fwd, t_k);
    bar_total += analysis::bar_delta_f(fwd, rev, t_k);
  }
  result.delta_f_bar = bar_total;
  result.delta_f_zwanzig = zw_total;
  return result;
}

void FepDecoupling::save_checkpoint(util::BinaryWriter& out) const {
  out.write_u64(windows_done_);
  out.write_pod_vector(seed_positions_);
  out.write_u64(sampled_.size());
  for (const FepWindowSamples& w : sampled_) {
    out.write_f64(w.lambda);
    out.write_pod_vector(w.du_to_next);
    out.write_pod_vector(w.du_to_prev);
  }
}

void FepDecoupling::restore_checkpoint(util::BinaryReader& in) {
  windows_done_ = in.read_u64();
  if (windows_done_ > config_.lambdas.size()) {
    throw IoError("FEP checkpoint window count out of range");
  }
  seed_positions_ = in.read_pod_vector<Vec3>();
  uint64_t n = in.read_u64();
  if (n != windows_done_) {
    throw IoError("FEP checkpoint sample list inconsistent");
  }
  sampled_.clear();
  sampled_.reserve(n);
  for (uint64_t k = 0; k < n; ++k) {
    FepWindowSamples w;
    w.lambda = in.read_f64();
    w.du_to_next = in.read_pod_vector<double>();
    w.du_to_prev = in.read_pod_vector<double>();
    sampled_.push_back(std::move(w));
  }
}

}  // namespace antmd::sampling
