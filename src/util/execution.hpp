// Deterministic parallel execution layer — compatibility shim.
//
// ExecutionConfig describes how much host parallelism a simulation may use.
// ExecutionContext is now a thin facade over util::TaskRuntime (the
// persistent worker pool behind util::TaskGraph): parallel_for runs as a
// one-task graph, and graph-aware subsystems reach the shared runtime via
// runtime() so an engine, its neighbor list and its step graph all reuse
// one pool.  The contract every caller relies on: results are bit-identical at
// any thread count, because all shared accumulations are either
// order-independent fixed-point sums or are merged in a fixed index order
// after the parallel region.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "util/task_graph.hpp"

namespace antmd {

struct ExecutionConfig {
  /// Worker lanes for the hot loops (step task graphs, node-partition force
  /// evaluation, neighbor-list rebuild, replica chunks).  1 = fully serial
  /// (no workers are spawned); 0 = use hardware_concurrency.
  size_t threads = 1;
  /// Optional externally owned worker pool.  When set (and parallel), the
  /// ExecutionContext reuses it instead of spawning its own workers — this
  /// is how the fleet scheduler multiplexes hundreds of engines over one
  /// TaskRuntime without a thread explosion.  Null (the default) keeps the
  /// one-pool-per-engine behavior.  Results are unaffected: the grain
  /// partition is a function of `threads`, never of the pool identity.
  std::shared_ptr<util::TaskRuntime> shared_runtime;
};

/// Shared parallel context.  One per Simulation/engine; cheap to share via
/// shared_ptr between an engine and its neighbor list so they reuse one
/// worker pool.
class ExecutionContext {
 public:
  explicit ExecutionContext(ExecutionConfig config);

  /// Never returns null: threads <= 1 yields a serial context.
  static std::shared_ptr<ExecutionContext> create(ExecutionConfig config);

  /// Effective worker count (>= 1).
  [[nodiscard]] size_t threads() const { return threads_; }
  /// True when worker lanes exist and parallel_for actually fans out.
  [[nodiscard]] bool parallel() const {
    return runtime_ && runtime_->parallel();
  }

  /// The persistent worker pool backing this context, for callers that
  /// build real task graphs instead of flat loops.  Null when serial.
  [[nodiscard]] const std::shared_ptr<util::TaskRuntime>& runtime() const {
    return runtime_;
  }

  /// Runs fn(i) for i in [0, count).  Serial contexts run in index order on
  /// the calling thread; parallel contexts make no ordering promise, so the
  /// caller must keep per-index outputs disjoint and reduce afterwards.
  void parallel_for(size_t count, const std::function<void(size_t)>& fn);

 private:
  ExecutionConfig config_;
  size_t threads_ = 1;
  std::shared_ptr<util::TaskRuntime> runtime_;  ///< null when threads_ == 1
};

}  // namespace antmd
