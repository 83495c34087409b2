#include "sampling/replica_exchange.hpp"

#include <algorithm>
#include <cmath>

#include "math/units.hpp"
#include "md/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace antmd::sampling {
namespace {

struct ExchangeMetrics {
  obs::Counter& attempts;
  obs::Counter& accepts;
};

ExchangeMetrics& exchange_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static ExchangeMetrics m{reg.counter("sampling.exchange.attempt.count"),
                           reg.counter("sampling.exchange.accept.count")};
  return m;
}

/// Swaps configurations between two simulations, rescaling velocities for
/// the temperature ratio (t_to / t_from per receiving replica).
void swap_configurations(md::Simulation& a, md::Simulation& b,
                         double temp_a, double temp_b) {
  State& sa = a.mutable_state();
  State& sb = b.mutable_state();
  std::swap(sa.positions, sb.positions);
  std::swap(sa.velocities, sb.velocities);
  // Velocities arriving at a new temperature are rescaled (standard REMD).
  if (temp_a != temp_b) {
    double f_a = std::sqrt(temp_a / temp_b);  // config from b arrives at a
    for (auto& v : sa.velocities) v *= f_a;
    double f_b = std::sqrt(temp_b / temp_a);
    for (auto& v : sb.velocities) v *= f_b;
  }
  a.invalidate_forces();
  b.invalidate_forces();
}

}  // namespace

TemperatureReplicaExchange::TemperatureReplicaExchange(
    std::vector<md::Simulation*> replicas, std::vector<double> temperatures,
    int attempt_interval, uint64_t seed, ExecutionConfig execution)
    : replicas_(std::move(replicas)),
      temperatures_(std::move(temperatures)),
      attempt_interval_(attempt_interval),
      rng_(seed),
      exec_(ExecutionContext::create(execution)),
      replica_graph_(exec_->runtime(), "sampling.remd") {
  ANTMD_REQUIRE(replicas_.size() >= 2, "need >= 2 replicas");
  ANTMD_REQUIRE(replicas_.size() == temperatures_.size(),
                "replica/temperature count mismatch");
  ANTMD_REQUIRE(std::is_sorted(temperatures_.begin(), temperatures_.end()),
                "temperatures must ascend");
  slot_to_replica_.resize(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) slot_to_replica_[i] = i;
  stats_.attempts.assign(replicas_.size() - 1, 0);
  stats_.accepts.assign(replicas_.size() - 1, 0);
  for (size_t i = 0; i < replicas_.size(); ++i) {
    replicas_[i]->thermostat().set_temperature(temperatures_[i]);
  }
  // Replicas are independent between exchanges (separate ForceFields,
  // counter-based RNGs), so the chunks may run concurrently.
  replica_graph_.add_parallel(
      "sampling.replica_chunk", [this] { return replicas_.size(); },
      [this](size_t r) { replicas_[r]->run(chunk_); });
}

void TemperatureReplicaExchange::run(size_t steps) {
  size_t done = 0;
  while (done < steps) {
    chunk_ = std::min<size_t>(attempt_interval_, steps - done);
    replica_graph_.run();
    size_t chunk = chunk_;
    done += chunk;
    if (chunk == static_cast<size_t>(attempt_interval_)) {
      attempt_exchanges(rounds_ % 2 == 0);
      ++rounds_;
    }
  }
}

void TemperatureReplicaExchange::attempt_exchanges(bool even_pairs) {
  for (size_t k = even_pairs ? 0 : 1; k + 1 < replicas_.size(); k += 2) {
    ++stats_.attempts[k];
    exchange_metrics().attempts.add();
    double beta_lo = 1.0 / (units::kBoltzmann * temperatures_[k]);
    double beta_hi = 1.0 / (units::kBoltzmann * temperatures_[k + 1]);
    double u_lo = replicas_[k]->potential_energy();
    double u_hi = replicas_[k + 1]->potential_energy();
    double log_acc = (beta_lo - beta_hi) * (u_lo - u_hi);
    if (log_acc >= 0.0 || rng_.uniform() < std::exp(log_acc)) {
      swap_configurations(*replicas_[k], *replicas_[k + 1],
                          temperatures_[k], temperatures_[k + 1]);
      std::swap(slot_to_replica_[k], slot_to_replica_[k + 1]);
      ++stats_.accepts[k];
      exchange_metrics().accepts.add();
    }
  }
}

void TemperatureReplicaExchange::save_checkpoint(
    util::BinaryWriter& out) const {
  out.write_pod_vector(stats_.attempts);
  out.write_pod_vector(stats_.accepts);
  out.write_pod_vector(slot_to_replica_);
  out.write_u64(rounds_);
  md::write_rng(out, rng_);
}

void TemperatureReplicaExchange::restore_checkpoint(util::BinaryReader& in) {
  stats_.attempts = in.read_pod_vector<uint64_t>();
  stats_.accepts = in.read_pod_vector<uint64_t>();
  slot_to_replica_ = in.read_pod_vector<size_t>();
  if (stats_.attempts.size() != replicas_.size() - 1 ||
      stats_.accepts.size() != replicas_.size() - 1 ||
      slot_to_replica_.size() != replicas_.size()) {
    throw IoError("replica-exchange checkpoint ladder size mismatch");
  }
  rounds_ = in.read_u64();
  md::read_rng(in, rng_);
}

HamiltonianReplicaExchange::HamiltonianReplicaExchange(
    std::vector<md::Simulation*> replicas, double temperature_k,
    int attempt_interval, uint64_t seed, ExecutionConfig execution)
    : replicas_(std::move(replicas)),
      temperature_k_(temperature_k),
      attempt_interval_(attempt_interval),
      rng_(seed),
      exec_(ExecutionContext::create(execution)),
      replica_graph_(exec_->runtime(), "sampling.hremd") {
  ANTMD_REQUIRE(replicas_.size() >= 2, "need >= 2 replicas");
  stats_.attempts.assign(replicas_.size() - 1, 0);
  stats_.accepts.assign(replicas_.size() - 1, 0);
  replica_graph_.add_parallel(
      "sampling.replica_chunk", [this] { return replicas_.size(); },
      [this](size_t r) { replicas_[r]->run(chunk_); });
}

void HamiltonianReplicaExchange::run(size_t steps) {
  size_t done = 0;
  while (done < steps) {
    chunk_ = std::min<size_t>(attempt_interval_, steps - done);
    replica_graph_.run();
    size_t chunk = chunk_;
    done += chunk;
    if (chunk == static_cast<size_t>(attempt_interval_)) {
      attempt_exchanges(rounds_ % 2 == 0);
      ++rounds_;
    }
  }
}

void HamiltonianReplicaExchange::attempt_exchanges(bool even_pairs) {
  const double beta = 1.0 / (units::kBoltzmann * temperature_k_);
  for (size_t k = even_pairs ? 0 : 1; k + 1 < replicas_.size(); k += 2) {
    ++stats_.attempts[k];
    exchange_metrics().attempts.add();
    md::Simulation& a = *replicas_[k];
    md::Simulation& b = *replicas_[k + 1];
    // Cross-Hamiltonian energies: U_a(x_b) and U_b(x_a).
    double u_aa = a.potential_energy();
    double u_bb = b.potential_energy();
    double u_ab = md::potential_energy(a.force_field(), b.state().positions,
                                       b.state().box);
    double u_ba = md::potential_energy(b.force_field(), a.state().positions,
                                       a.state().box);
    double log_acc = -beta * ((u_ab + u_ba) - (u_aa + u_bb));
    if (log_acc >= 0.0 || rng_.uniform() < std::exp(log_acc)) {
      swap_configurations(a, b, temperature_k_, temperature_k_);
      ++stats_.accepts[k];
      exchange_metrics().accepts.add();
    }
  }
}

}  // namespace antmd::sampling
