// Replica exchange: several replicas run in parallel (on the real machine,
// on separate partitions or time-sliced), periodically attempting to swap
// configurations between neighbours.
//
// Temperature REMD swaps between replicas at different temperatures;
// Hamiltonian REMD swaps between replicas with scaled interactions
// (vdw/charge scale factors), which requires cross-Hamiltonian energy
// evaluations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "math/rng.hpp"
#include "md/simulation.hpp"
#include "util/execution.hpp"
#include "util/task_graph.hpp"

namespace antmd::sampling {

struct ExchangeStats {
  std::vector<uint64_t> attempts;  ///< per neighbour pair (i, i+1)
  std::vector<uint64_t> accepts;
  [[nodiscard]] double acceptance(size_t pair) const {
    return attempts[pair] ? static_cast<double>(accepts[pair]) /
                                static_cast<double>(attempts[pair])
                          : 0.0;
  }
};

class TemperatureReplicaExchange : public util::Checkpointable {
 public:
  /// Each replica must have a thermostat set to the matching temperature.
  /// With execution.threads > 1 the replicas advance their MD chunks
  /// concurrently (each replica must own its ForceField); exchange
  /// decisions stay serial, so results are identical at any thread count.
  TemperatureReplicaExchange(std::vector<md::Simulation*> replicas,
                             std::vector<double> temperatures,
                             int attempt_interval, uint64_t seed = 7,
                             ExecutionConfig execution = {});

  /// Advances every replica by `steps` MD steps with exchanges interleaved.
  void run(size_t steps);

  [[nodiscard]] const ExchangeStats& stats() const { return stats_; }
  /// Which original replica index currently holds ladder slot k (replica
  /// flow diagnostic).
  [[nodiscard]] const std::vector<size_t>& slot_to_replica() const {
    return slot_to_replica_;
  }

  /// Checkpoint: exchange statistics, the slot permutation, the round
  /// counter (even/odd pair alternation) and the swap RNG position.  The
  /// replicas themselves are separate Checkpointables and must be saved /
  /// restored alongside this driver.
  void save_checkpoint(util::BinaryWriter& out) const override;
  void restore_checkpoint(util::BinaryReader& in) override;

 private:
  void attempt_exchanges(bool even_pairs);

  std::vector<md::Simulation*> replicas_;  ///< indexed by ladder slot
  std::vector<double> temperatures_;
  std::vector<size_t> slot_to_replica_;
  int attempt_interval_;
  SequentialRng rng_;
  ExchangeStats stats_;
  uint64_t rounds_ = 0;
  /// One parallel node over the replica set on the execution config's
  /// pool, reused across exchange rounds; chunk_ is the per-round step
  /// count its body reads.
  util::TaskGraph replica_graph_;
  size_t chunk_ = 0;
};

class HamiltonianReplicaExchange {
 public:
  /// Replica k runs with its force field's current vdw/charge scales; all
  /// replicas share one temperature.  See TemperatureReplicaExchange for
  /// the concurrency contract of `execution`.
  HamiltonianReplicaExchange(std::vector<md::Simulation*> replicas,
                             double temperature_k, int attempt_interval,
                             uint64_t seed = 7,
                             ExecutionConfig execution = {});

  void run(size_t steps);

  [[nodiscard]] const ExchangeStats& stats() const { return stats_; }

 private:
  void attempt_exchanges(bool even_pairs);

  std::vector<md::Simulation*> replicas_;
  double temperature_k_;
  int attempt_interval_;
  SequentialRng rng_;
  ExchangeStats stats_;
  uint64_t rounds_ = 0;
  util::TaskGraph replica_graph_;  ///< see TemperatureReplicaExchange
  size_t chunk_ = 0;
};

}  // namespace antmd::sampling
