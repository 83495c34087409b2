// ExecutionConfig: how much host parallelism a simulation may use.
//
// util::TaskRuntime::create(config) resolves it once into the worker pool
// an engine, its neighbor list and its step graph share.  The contract
// every caller relies on: results are bit-identical at any thread count,
// because all shared accumulations are either order-independent fixed-point
// sums or are merged in a fixed index order after the parallel region.
#pragma once

#include <cstddef>
#include <memory>

#include "util/task_graph.hpp"

namespace antmd {

struct ExecutionConfig {
  /// Worker lanes for the hot loops (step task graphs, node-partition force
  /// evaluation, neighbor-list rebuild, replica chunks).  1 = fully serial
  /// (no workers are spawned); 0 = use hardware_concurrency.
  size_t threads = 1;
  /// Optional externally owned worker pool.  When set (and parallel),
  /// TaskRuntime::create returns it instead of spawning new workers — this
  /// is how the fleet scheduler multiplexes hundreds of engines over one
  /// TaskRuntime without a thread explosion.  Null (the default) keeps the
  /// one-pool-per-engine behavior.  Results are unaffected: grain
  /// partitions are functions of the data, never of the pool identity.
  std::shared_ptr<util::TaskRuntime> shared_runtime;
};

/// Older spelling of util::TaskRuntime, kept for the perfbench layer probe.
using ExecutionContext = util::TaskRuntime;

}  // namespace antmd
