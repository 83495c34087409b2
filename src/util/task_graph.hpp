// Deterministic task-graph execution: the one parallel entry point.
//
// The step of an MD engine is not a sequence of barriers, it is a DAG:
// bonded, nonbonded tiles and kspace are independent once positions are
// final, and only the reduction that folds their partial results needs an
// order.  TaskGraph lets callers say exactly that — named tasks with
// explicit dependencies plus a fixed-order reduction slot — and a
// persistent TaskRuntime executes ready tasks work-stealing-style across
// worker lanes.
//
// Determinism contract (what keeps trajectories bit-identical at any lane
// count; gated by graph_determinism_test and parallel_determinism_test):
//   * Task *scheduling* is unordered, so task bodies may only write
//     disjoint state: per-lane accumulators (indexed by
//     TaskRuntime::current_lane()), per-grain slots, or order-independent
//     fixed-point sums.
//   * All order-sensitive arithmetic (double-precision virial, gauge
//     updates) happens in reduction tasks, which are ordinary tasks whose
//     dependencies force them to run alone after the fan-out; they fold
//     partials in a fixed (ascending) index order.
//   * Parallel tasks resolve their grain count through a callable *when
//     the task becomes ready* (upstream tasks may grow or shrink the work,
//     e.g. a neighbor-list rebuild changing the tile count), and the grain
//     partition must be a function of the data only — never of the lane
//     count.  plan_chunks() is the shared helper for that.
//
// Execution model: TaskRuntime keeps `lanes-1` persistent worker threads
// that spin briefly between runs and then park on a condition variable;
// the calling thread participates as lane 0, so a serial runtime is just
// the caller.  A graph whose task bodies re-enter the same runtime (e.g. a
// neighbor-list rebuild calling parallel_for inside a step graph) runs the
// nested work inline and serially on the calling lane — re-entry never
// deadlocks and never changes results, it only forgoes nested parallelism.
//
// Telemetry: when obs telemetry is enabled, parallel runs publish
// md.exec.* metrics (task/grain/steal/idle counters, busy and
// critical-path share gauges) and emit one Chrome-trace span per task per
// lane.  Task names must be string literals (stored by pointer, like
// obs::TracePhase).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace antmd {
struct ExecutionConfig;
}

namespace antmd::util {

/// Deterministic chunk partition: splits `items` into at most `max_chunks`
/// chunks of at least `min_per_chunk` items (except possibly the last).
/// The partition is a function of the arguments only — never of the lane
/// count — so per-chunk partials always have the same boundaries and a
/// fixed-order reduction over them is bit-stable at any thread count.
struct ChunkPlan {
  size_t items = 0;
  size_t chunks = 0;
  size_t chunk_len = 0;

  [[nodiscard]] size_t begin(size_t c) const { return c * chunk_len; }
  [[nodiscard]] size_t end(size_t c) const {
    const size_t e = (c + 1) * chunk_len;
    return e < items ? e : items;
  }
};

[[nodiscard]] ChunkPlan plan_chunks(size_t items, size_t min_per_chunk,
                                    size_t max_chunks);

class TaskGraph;

/// Persistent worker pool shared by every graph of one simulation: its
/// engine, neighbor list, tile fan-out and replica driver hold the same
/// shared_ptr.  `lanes` counts the calling thread, so lanes == 1 spawns no
/// workers at all.
class TaskRuntime : public std::enable_shared_from_this<TaskRuntime> {
 public:
  /// `lanes` == 0 uses hardware_concurrency (min 1).
  explicit TaskRuntime(size_t lanes = 0);
  ~TaskRuntime();

  TaskRuntime(const TaskRuntime&) = delete;
  TaskRuntime& operator=(const TaskRuntime&) = delete;

  static std::shared_ptr<TaskRuntime> create(size_t lanes = 0);
  /// The pool `config` asks for: `config.shared_runtime` when the resolved
  /// lane count is above 1 and a shared pool is set, a new pool of that
  /// many lanes otherwise (1 lane: no worker threads).  Never null.
  static std::shared_ptr<TaskRuntime> create(const ExecutionConfig& config);

  [[nodiscard]] size_t lanes() const { return lanes_; }
  [[nodiscard]] bool parallel() const { return lanes_ > 1; }

  /// Lane of the calling thread while it executes graph work on some
  /// runtime: in [0, lanes) there, 0 everywhere else.  Task bodies index
  /// per-lane accumulators with this.
  [[nodiscard]] static size_t current_lane();

  /// True when the calling thread is already executing work on this
  /// runtime.  Nested graphs detect this and fall back to the serial
  /// schedule instead of deadlocking on the run lock.
  [[nodiscard]] bool is_current() const;

  /// One-shot collective: runs fn(i) for i in [0, count) and blocks until
  /// done (a single-parallel-task graph).  Serial runtimes — and calls
  /// that re-enter the runtime from inside a task body — run in index
  /// order on the calling thread.  The first exception is rethrown after
  /// all lanes quiesce.
  void parallel_for(size_t count, const std::function<void(size_t)>& fn);

 private:
  friend class TaskGraph;

  /// Executes a prepared graph to completion; returns with all lanes out.
  void run_prepared(TaskGraph& graph);
  void worker_loop(size_t lane);

  size_t lanes_ = 1;
  std::vector<std::thread> workers_;
  std::atomic<TaskGraph*> active_{nullptr};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> inside_{0};  ///< workers currently touching active_
  std::atomic<uint32_t> parked_{0};
  std::atomic<bool> stop_{false};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::mutex run_mutex_;  ///< serializes top-level run() calls
};

using TaskId = uint32_t;

/// A reusable DAG of named tasks.  Build once (add tasks, wire deps), run
/// every step; per-run scheduling state is reset by run().  Dependencies
/// must point at already-added tasks, so insertion order is a topological
/// order — the serial fallback simply runs tasks in insertion order, which
/// is also the arithmetic the parallel run must reproduce bitwise.
///
/// Not thread-safe: build and run from one thread at a time.  Task bodies
/// are retained until the graph is destroyed; captured references must
/// outlive it.
class TaskGraph {
 public:
  /// A null runtime (or a 1-lane one) makes run() execute serially.
  explicit TaskGraph(std::shared_ptr<TaskRuntime> runtime = nullptr,
                     const char* name = "task_graph");

  /// Adds a serial task.  `name` must be a string literal.
  TaskId add(const char* name, std::function<void()> fn,
             std::vector<TaskId> deps = {});

  /// Adds a parallel task: when every dependency has finished, `count()`
  /// is invoked once (single-threaded) and body(g) runs for every grain
  /// g in [0, count) across all idle lanes.  The grain partition seen by
  /// `body` must not depend on the lane count.
  TaskId add_parallel(const char* name, std::function<size_t()> count,
                      std::function<void(size_t)> body,
                      std::vector<TaskId> deps = {});

  /// Adds the fixed-order reduction slot: an ordinary serial task whose
  /// dependencies make it run after the fan-out it folds.  Kept as a
  /// distinct verb so call sites document where the order-sensitive
  /// arithmetic lives.
  TaskId add_reduction(const char* name, std::function<void()> fn,
                       std::vector<TaskId> deps);

  /// Executes the graph to completion and rethrows the first task
  /// exception (remaining tasks are cancelled, not torn mid-body).  A
  /// graph may be run any number of times.
  void run();

  [[nodiscard]] size_t task_count() const { return nodes_.size(); }
  [[nodiscard]] size_t lanes() const;
  [[nodiscard]] bool parallel() const;

 private:
  friend class TaskRuntime;

  struct SpinLock {
    void lock() {
      while (flag_.test_and_set(std::memory_order_acquire)) pause();
    }
    void unlock() { flag_.clear(std::memory_order_release); }
    static void pause();
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  };

  struct Node {
    const char* name = "";
    std::function<void()> fn;          ///< serial body (null for parallel)
    std::function<size_t()> count_fn;  ///< parallel grain count provider
    std::function<void(size_t)> body;  ///< parallel grain body
    std::vector<TaskId> children;
    uint32_t n_deps = 0;
    // Per-run scheduling state (reset by prepare()).
    std::atomic<uint32_t> pending{0};
    std::atomic<size_t> cursor{0};
    std::atomic<size_t> done_grains{0};
    size_t grains = 0;  ///< resolved at ready time; fixed while scheduled
    std::atomic<int32_t> first_lane{-1};
    /// Work attributed to this task this run (grains sum over lanes);
    /// collected only under attribution profiling.
    std::atomic<uint64_t> busy_ns{0};
  };

  TaskId add_node(const char* name, std::vector<TaskId> deps);
  void run_serial();
  void prepare();
  void work(size_t lane);        ///< participate until every task is done
  bool execute_one(size_t lane); ///< pop + run one ready entry
  void drain_grains(Node& node, uint32_t id, size_t lane);
  void run_serial_body(Node& node, size_t lane);
  void on_node_done(Node& node);
  void make_ready(uint32_t id);
  void push_ready(uint32_t id);
  void record_error();
  void finish(double wall_us);  ///< metrics + rethrow after lanes quiesce
  /// Critical-path analysis over this run's per-task busy durations: DAG
  /// longest path, per-task slack and what-if savings, reported to
  /// obs::Profile::global().  Runs once per graph run under profiling.
  void record_profile();

  const char* name_;
  std::shared_ptr<TaskRuntime> runtime_;

  std::deque<Node> nodes_;  ///< deque: stable addresses, non-movable Nodes

  // Per-run scheduling state.
  std::atomic<uint32_t> completed_{0};
  std::atomic<bool> cancelled_{false};
  SpinLock ready_lock_;
  std::vector<uint32_t> ready_;
  size_t ready_head_ = 0;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  // Per-run telemetry (collected only while obs telemetry is enabled).
  bool stats_on_ = false;
  /// Attribution profiling (obs::profiling_enabled at prepare time):
  /// per-task durations + critical-path analysis.
  bool prof_on_ = false;
  std::vector<double> lane_busy_us_;
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> idle_polls_{0};
};

}  // namespace antmd::util
