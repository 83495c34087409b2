#include "util/task_graph.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/execution.hpp"

namespace antmd::util {

namespace {

/// Lane identity of the calling thread.  Worker threads pin theirs for
/// life; the thread driving a run (or a nested serial region) scopes it.
thread_local TaskRuntime* tl_runtime = nullptr;
thread_local size_t tl_lane = 0;

struct LaneScope {
  LaneScope(TaskRuntime* runtime, size_t lane)
      : saved_runtime_(tl_runtime), saved_lane_(tl_lane) {
    tl_runtime = runtime;
    tl_lane = lane;
  }
  ~LaneScope() {
    tl_runtime = saved_runtime_;
    tl_lane = saved_lane_;
  }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  TaskRuntime* saved_runtime_;
  size_t saved_lane_;
};

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Spin iterations before a worker parks between runs.  Short on purpose:
/// the step phases that follow each other within microseconds stay in the
/// spin window, while an idle simulation (or an oversubscribed host) gets
/// its cores back quickly.
constexpr int kSpinIters = 4096;

struct ExecMetrics {
  obs::Counter& runs;
  obs::Counter& tasks;
  obs::Counter& grains;
  obs::Counter& steals;
  obs::Counter& idle_polls;
  obs::Counter& busy_ns;
  obs::Gauge& lanes;
  obs::Gauge& busy_share;
  obs::Gauge& critical_path_share;
};

ExecMetrics& exec_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static ExecMetrics m{reg.counter("md.exec.run.count"),
                       reg.counter("md.exec.task.count"),
                       reg.counter("md.exec.grain.count"),
                       reg.counter("md.exec.steal.count"),
                       reg.counter("md.exec.idle.count"),
                       reg.counter("md.exec.busy.time_ns"),
                       reg.gauge("md.exec.lanes"),
                       reg.gauge("md.exec.busy_share"),
                       reg.gauge("md.exec.critical_path_share")};
  return m;
}

/// `lanes`, with 0 meaning hardware_concurrency (min 1).
size_t resolve_lanes(size_t lanes) {
  if (lanes == 0) lanes = std::thread::hardware_concurrency();
  return lanes == 0 ? 1 : lanes;
}

}  // namespace

void TaskGraph::SpinLock::pause() { cpu_pause(); }

// ---------------------------------------------------------------------------
// ChunkPlan

ChunkPlan plan_chunks(size_t items, size_t min_per_chunk, size_t max_chunks) {
  ChunkPlan plan;
  plan.items = items;
  if (items == 0) return plan;
  ANTMD_REQUIRE(min_per_chunk > 0 && max_chunks > 0,
                "plan_chunks needs positive bounds");
  const size_t want = (items + min_per_chunk - 1) / min_per_chunk;
  plan.chunk_len = (items + std::min(want, max_chunks) - 1) /
                   std::min(want, max_chunks);
  plan.chunks = (items + plan.chunk_len - 1) / plan.chunk_len;
  return plan;
}

// ---------------------------------------------------------------------------
// TaskRuntime

TaskRuntime::TaskRuntime(size_t lanes) {
  lanes_ = resolve_lanes(lanes);
  workers_.reserve(lanes_ - 1);
  for (size_t lane = 1; lane < lanes_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

TaskRuntime::~TaskRuntime() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
  }
  park_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::shared_ptr<TaskRuntime> TaskRuntime::create(size_t lanes) {
  return std::make_shared<TaskRuntime>(lanes);
}

std::shared_ptr<TaskRuntime> TaskRuntime::create(const ExecutionConfig& config) {
  const size_t lanes = resolve_lanes(config.threads);
  if (lanes > 1 && config.shared_runtime) return config.shared_runtime;
  return create(lanes);
}

size_t TaskRuntime::current_lane() { return tl_lane; }

bool TaskRuntime::is_current() const { return tl_runtime == this; }

void TaskRuntime::worker_loop(size_t lane) {
  tl_runtime = this;
  tl_lane = lane;
  uint64_t seen = 0;
  for (;;) {
    uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e == seen) {
      if (stop_.load(std::memory_order_acquire)) return;
      bool advanced = false;
      for (int spin = 0; spin < kSpinIters; ++spin) {
        e = epoch_.load(std::memory_order_acquire);
        if (e != seen || stop_.load(std::memory_order_relaxed)) {
          advanced = true;
          break;
        }
        if ((spin & 63) == 63) {
          std::this_thread::yield();
        } else {
          cpu_pause();
        }
      }
      if (!advanced) {
        std::unique_lock<std::mutex> lock(park_mutex_);
        parked_.fetch_add(1, std::memory_order_relaxed);
        park_cv_.wait(lock, [&] {
          return epoch_.load(std::memory_order_relaxed) != seen ||
                 stop_.load(std::memory_order_relaxed);
        });
        parked_.fetch_sub(1, std::memory_order_relaxed);
      }
      continue;
    }
    seen = e;
    // Register before reading active_: run_prepared() clears active_ first
    // and then waits for inside_ == 0, so any worker that observed a live
    // graph is counted until it lets go of it.
    inside_.fetch_add(1, std::memory_order_acq_rel);
    TaskGraph* graph = active_.load(std::memory_order_acquire);
    if (graph != nullptr) graph->work(lane);
    inside_.fetch_sub(1, std::memory_order_release);
  }
}

void TaskRuntime::run_prepared(TaskGraph& graph) {
  std::lock_guard<std::mutex> serial(run_mutex_);
  active_.store(&graph, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  if (parked_.load(std::memory_order_relaxed) > 0) {
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
    }
    park_cv_.notify_all();
  }
  {
    LaneScope scope(this, 0);
    graph.work(0);
  }
  active_.store(nullptr, std::memory_order_release);
  // Workers drain within a few instructions normally, but on an
  // oversubscribed host one may be descheduled mid-graph: yield rather
  // than burning the caller's whole quantum pausing.
  int spins = 0;
  while (inside_.load(std::memory_order_acquire) != 0) {
    if ((++spins & 63) == 0) {
      std::this_thread::yield();
    } else {
      cpu_pause();
    }
  }
}

void TaskRuntime::parallel_for(size_t count,
                               const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (lanes_ <= 1 || tl_runtime == this) {
    // Serial runtime, or re-entry from inside one of our own task bodies:
    // run inline, in index order, as lane 0 of a nested serial region.
    LaneScope scope(tl_runtime, 0);
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  TaskGraph graph(shared_from_this(), "util.parallel_for");
  graph.add_parallel(
      "util.parallel_for", [count] { return count; },
      [&fn](size_t i) { fn(i); });
  graph.run();
}

// ---------------------------------------------------------------------------
// TaskGraph

TaskGraph::TaskGraph(std::shared_ptr<TaskRuntime> runtime, const char* name)
    : name_(name), runtime_(std::move(runtime)) {}

size_t TaskGraph::lanes() const {
  return runtime_ ? runtime_->lanes() : size_t{1};
}

bool TaskGraph::parallel() const { return runtime_ && runtime_->parallel(); }

TaskId TaskGraph::add_node(const char* name, std::vector<TaskId> deps) {
  const auto id = static_cast<TaskId>(nodes_.size());
  Node& node = nodes_.emplace_back();
  node.name = name;
  for (TaskId dep : deps) {
    ANTMD_REQUIRE(dep < id, "task dependency must reference an earlier task");
    nodes_[dep].children.push_back(id);
  }
  node.n_deps = static_cast<uint32_t>(deps.size());
  return id;
}

TaskId TaskGraph::add(const char* name, std::function<void()> fn,
                      std::vector<TaskId> deps) {
  ANTMD_REQUIRE(fn != nullptr, "task body must not be null");
  const TaskId id = add_node(name, std::move(deps));
  nodes_[id].fn = std::move(fn);
  return id;
}

TaskId TaskGraph::add_parallel(const char* name, std::function<size_t()> count,
                               std::function<void(size_t)> body,
                               std::vector<TaskId> deps) {
  ANTMD_REQUIRE(count != nullptr && body != nullptr,
                "parallel task needs a count provider and a body");
  const TaskId id = add_node(name, std::move(deps));
  nodes_[id].count_fn = std::move(count);
  nodes_[id].body = std::move(body);
  return id;
}

TaskId TaskGraph::add_reduction(const char* name, std::function<void()> fn,
                                std::vector<TaskId> deps) {
  ANTMD_REQUIRE(!deps.empty(), "a reduction folds something: deps required");
  return add(name, std::move(fn), std::move(deps));
}

void TaskGraph::run() {
  if (nodes_.empty()) return;
  if (!parallel() || runtime_->is_current()) {
    // Serial runtime, or a nested graph on a runtime this thread is
    // already working for: the serial schedule is the same arithmetic.
    run_serial();
    return;
  }
  const bool stats = obs::enabled();
  const double t0 = stats ? obs::now_us() : 0.0;
  prepare();
  if (completed_.load(std::memory_order_relaxed) <
      static_cast<uint32_t>(nodes_.size())) {
    runtime_->run_prepared(*this);
  }
  finish(stats ? obs::now_us() - t0 : 0.0);
}

void TaskGraph::run_serial() {
  // Insertion order is a topological order (add() enforces dep < id), and
  // it is exactly the arithmetic the parallel run reproduces bitwise.
  LaneScope scope(tl_runtime, 0);
  prof_on_ = obs::profiling_enabled();
  for (Node& node : nodes_) {
    obs::TracePhase span(node.name, "exec");
    const double t0 = prof_on_ ? obs::now_us() : 0.0;
    if (node.body) {
      const size_t grains = node.count_fn();
      for (size_t g = 0; g < grains; ++g) node.body(g);
    } else {
      node.fn();
    }
    if (prof_on_) {
      node.busy_ns.store(
          static_cast<uint64_t>((obs::now_us() - t0) * 1e3),
          std::memory_order_relaxed);
    }
  }
  // The serial schedule profiles through the same analysis: the critical
  // path is a property of the DAG and the durations, not of the lane count.
  if (prof_on_) record_profile();
}

void TaskGraph::prepare() {
  completed_.store(0, std::memory_order_relaxed);
  cancelled_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  ready_.clear();
  ready_head_ = 0;
  stats_on_ = obs::enabled();
  prof_on_ = obs::profiling_enabled();
  steals_.store(0, std::memory_order_relaxed);
  idle_polls_.store(0, std::memory_order_relaxed);
  if (stats_on_) lane_busy_us_.assign(lanes(), 0.0);
  for (Node& node : nodes_) {
    node.pending.store(node.n_deps, std::memory_order_relaxed);
    node.first_lane.store(-1, std::memory_order_relaxed);
    if (prof_on_) node.busy_ns.store(0, std::memory_order_relaxed);
  }
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].n_deps == 0) make_ready(id);
  }
}

void TaskGraph::push_ready(uint32_t id) {
  ready_lock_.lock();
  ready_.push_back(id);
  ready_lock_.unlock();
}

void TaskGraph::make_ready(uint32_t id) {
  Node& node = nodes_[id];
  if (node.body) {
    // Resolve the grain count exactly once, single-threaded: only the lane
    // that completed the last dependency reaches this point.
    size_t grains = 0;
    if (!cancelled_.load(std::memory_order_relaxed)) {
      try {
        grains = node.count_fn();
      } catch (...) {
        record_error();
      }
    }
    node.grains = grains;
    if (grains == 0) {
      on_node_done(node);
      return;
    }
    node.cursor.store(0, std::memory_order_relaxed);
    node.done_grains.store(0, std::memory_order_relaxed);
  }
  push_ready(id);
}

void TaskGraph::on_node_done(Node& node) {
  completed_.fetch_add(1, std::memory_order_acq_rel);
  for (TaskId child : node.children) {
    if (nodes_[child].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      make_ready(child);
    }
  }
}

void TaskGraph::work(size_t lane) {
  const auto total = static_cast<uint32_t>(nodes_.size());
  int idle = 0;
  while (completed_.load(std::memory_order_acquire) < total) {
    if (execute_one(lane)) {
      idle = 0;
      continue;
    }
    if (stats_on_) idle_polls_.fetch_add(1, std::memory_order_relaxed);
    ++idle;
    if (idle >= 4096) {
      // Long idle stretch (another lane owns a serial task, or the host
      // is oversubscribed): sleep instead of yield-spinning.  A yielding
      // lane still shares the core roughly evenly under CFS, which on an
      // oversubscribed host steals half the cycles from the lane doing
      // real work; 50us naps cost at most that latency per wake-up.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else if ((idle & 63) == 0) {
      std::this_thread::yield();
    } else {
      cpu_pause();
    }
  }
}

bool TaskGraph::execute_one(size_t lane) {
  uint32_t id;
  {
    ready_lock_.lock();
    if (ready_head_ >= ready_.size()) {
      ready_lock_.unlock();
      return false;
    }
    id = ready_[ready_head_++];
    ready_lock_.unlock();
  }
  Node& node = nodes_[id];
  if (node.body) {
    drain_grains(node, id, lane);
  } else {
    run_serial_body(node, lane);
    on_node_done(node);
  }
  return true;
}

void TaskGraph::run_serial_body(Node& node, size_t lane) {
  if (cancelled_.load(std::memory_order_relaxed)) return;
  const bool timed = stats_on_ || prof_on_;
  const double t0 = timed ? obs::now_us() : 0.0;
  {
    obs::TracePhase span(node.name, "exec");
    try {
      node.fn();
    } catch (...) {
      record_error();
    }
  }
  if (timed) {
    const double dur_us = obs::now_us() - t0;
    if (stats_on_) lane_busy_us_[lane] += dur_us;
    if (prof_on_) {
      node.busy_ns.fetch_add(static_cast<uint64_t>(dur_us * 1e3),
                             std::memory_order_relaxed);
    }
  }
}

void TaskGraph::drain_grains(Node& node, uint32_t id, size_t lane) {
  if (stats_on_) {
    int32_t expected = -1;
    if (!node.first_lane.compare_exchange_strong(
            expected, static_cast<int32_t>(lane),
            std::memory_order_relaxed) &&
        expected != static_cast<int32_t>(lane)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const bool timed = stats_on_ || prof_on_;
  const double t0 = timed ? obs::now_us() : 0.0;
  bool republished = false;
  size_t ran = 0;
  {
    obs::TracePhase span(node.name, "exec");
    const bool skip = cancelled_.load(std::memory_order_relaxed);
    for (;;) {
      const size_t g = node.cursor.fetch_add(1, std::memory_order_relaxed);
      if (g >= node.grains) break;
      // Leave one breadcrumb in the ready list so idle lanes can join this
      // node's remaining grains; stale breadcrumbs after exhaustion are
      // harmless no-ops.
      if (!republished && g + 1 < node.grains) {
        push_ready(id);
        republished = true;
      }
      if (!skip) {
        try {
          node.body(g);
        } catch (...) {
          record_error();
        }
      }
      ++ran;
      if (node.done_grains.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          node.grains) {
        on_node_done(node);
        break;
      }
    }
  }
  if (timed && ran > 0) {
    const double dur_us = obs::now_us() - t0;
    if (stats_on_) lane_busy_us_[lane] += dur_us;
    if (prof_on_) {
      // Summed over every lane that drained grains: the task's total work.
      node.busy_ns.fetch_add(static_cast<uint64_t>(dur_us * 1e3),
                             std::memory_order_relaxed);
    }
  }
}

void TaskGraph::record_error() {
  cancelled_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

void TaskGraph::finish(double wall_us) {
  if (stats_on_) {
    auto& m = exec_metrics();
    m.runs.add(1);
    m.tasks.add(nodes_.size());
    uint64_t grains = 0;
    for (const Node& node : nodes_) {
      if (node.body) grains += node.grains;
    }
    m.grains.add(grains);
    m.steals.add(steals_.load(std::memory_order_relaxed));
    m.idle_polls.add(idle_polls_.load(std::memory_order_relaxed));
    double busy_us = 0.0;
    double max_lane_us = 0.0;
    for (double b : lane_busy_us_) {
      busy_us += b;
      max_lane_us = std::max(max_lane_us, b);
    }
    m.busy_ns.add(static_cast<uint64_t>(busy_us * 1e3));
    m.lanes.set(static_cast<double>(lanes()));
    if (wall_us > 0.0) {
      m.busy_share.set(busy_us / (wall_us * static_cast<double>(lanes())));
      m.critical_path_share.set(max_lane_us / wall_us);
    }
  }
  if (prof_on_ && !first_error_) record_profile();
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void TaskGraph::record_profile() {
  const size_t n = nodes_.size();
  if (n == 0) return;
  // Durations are each task's total work (grains summed over lanes), so the
  // serial and parallel schedules analyze the same quantity; the critical
  // path is then the DAG's lower bound on step latency under perfect
  // parallelism, and slack/what-if quantify the overlap opportunities.
  std::vector<double> dur(n), in_ef(n, 0.0), ef(n), tail(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    dur[i] = static_cast<double>(
                 nodes_[i].busy_ns.load(std::memory_order_relaxed)) *
             1e-3;  // ns -> us
  }
  // Forward pass over insertion order (a topological order): earliest
  // finish of each task given its dependencies.
  double critical = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ef[i] = in_ef[i] + dur[i];
    critical = std::max(critical, ef[i]);
    for (TaskId c : nodes_[i].children) in_ef[c] = std::max(in_ef[c], ef[i]);
  }
  // Backward pass: longest downstream chain hanging off each task.
  for (size_t i = n; i-- > 0;) {
    double down = 0.0;
    for (TaskId c : nodes_[i].children) down = std::max(down, tail[c]);
    tail[i] = dur[i] + down;
  }
  double busy = 0.0;
  for (double d : dur) busy += d;

  // What-if: critical path with one task's duration zeroed — the most a
  // perfect optimization of that task could shorten the step.
  auto critical_without = [&](size_t skip) {
    std::vector<double> in(n, 0.0);
    double longest = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double fin = in[i] + (i == skip ? 0.0 : dur[i]);
      longest = std::max(longest, fin);
      for (TaskId c : nodes_[i].children) in[c] = std::max(in[c], fin);
    }
    return longest;
  };

  const double eps = critical * 1e-12;
  std::vector<obs::TaskSpan> spans(n);
  for (size_t i = 0; i < n; ++i) {
    const double through = in_ef[i] + tail[i];  // longest path through i
    spans[i].name = nodes_[i].name;
    spans[i].busy_us = dur[i];
    spans[i].slack_us = std::max(0.0, critical - through);
    spans[i].whatif_saving_us = critical - critical_without(i);
    spans[i].on_critical_path = through >= critical - eps;
  }
  obs::Profile::global().record_graph(name_, critical, busy, spans);
}

}  // namespace antmd::util
