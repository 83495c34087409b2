// Per-kernel phase tracing in Chrome trace_event format.
//
// TracePhase is the RAII unit of instrumentation: construct it at the top
// of a phase and the destructor (a) adds the elapsed nanoseconds to an
// optional Counter — feeding the metrics registry's phase breakdown even
// when no trace file is being written — and (b) appends a complete event
// ("ph":"X") to the global TraceSession when one is recording.  Load the
// resulting file in chrome://tracing or https://ui.perfetto.dev.
//
// Tracks: by default an event lands on the calling thread's track (a small
// stable per-thread id).  Passing an explicit `track` id instead puts it on
// a synthetic track — the engine uses 1000+node for per-node force
// evaluation and the sampling drivers 2000+replica — so per-node/per-replica
// timelines render separately no matter which worker thread ran the work.
//
// Costs: with telemetry disabled a TracePhase is two relaxed atomic loads;
// enabled but not recording adds two steady_clock reads and a counter add;
// recording appends one small struct under a mutex.  Phases are step-scale
// (>> microseconds), so none of this is measurable on the hot path — the
// budget is enforced by scripts/check_metrics_overhead.sh.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace antmd::obs {

/// Microseconds since the process-wide steady-clock epoch (first use).
double now_us();

/// Synthetic track ids start here (engine: 1000+node, sampling drivers:
/// 2000+replica); smaller tids are per-thread tracks.  Only synthetic
/// tracks are namespaced per fleet run — worker threads are shared.
inline constexpr uint32_t kSyntheticTrackBase = 1000;

/// Stride between two fleet runs' synthetic track ranges.  Without it two
/// multiplexed machine runs would interleave spans on the same 1000+node
/// track; with it run R's node n renders as tid 1000+n+R*stride under
/// process R (see TraceSession::set_active_run).
inline constexpr uint32_t kRunTidStride = 100000;

class TraceSession {
 public:
  /// The process-wide session every TracePhase reports to.
  static TraceSession& global();

  /// Begins recording; events are buffered in memory until stop().
  /// `path` may be empty (buffer only — to_json() still works; tests).
  void start(std::string path);

  /// Stops recording and, when a path was given, writes the JSON file.
  /// Returns false if the file could not be written.  Idempotent.
  bool stop();

  [[nodiscard]] bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  /// Appends one complete event.  `name`/`cat`/`arg_name` must be string
  /// literals (stored by pointer).  tid selects the track; pass
  /// arg_name == nullptr for no args object.
  void emit_complete(const char* name, const char* cat, double ts_us,
                     double dur_us, uint32_t tid,
                     const char* arg_name = nullptr, int64_t arg = 0);

  /// Names a track (rendered by Chrome as the thread name).  Idempotent.
  void set_track_name(uint32_t tid, const std::string& name);

  /// Scopes subsequent events to fleet run `index` (0 = the default solo
  /// process): events carry pid = index, synthetic tids (>=
  /// kSyntheticTrackBase) shift by index * kRunTidStride, and a non-empty
  /// `name` becomes the run's process_name metadata.  A relaxed store —
  /// safe to call per scheduler slice whether or not a trace is recording.
  void set_active_run(uint32_t index, const std::string& name = {});
  [[nodiscard]] uint32_t active_run() const {
    return run_index_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] size_t event_count() const;
  /// Events discarded after the in-memory cap was hit.
  [[nodiscard]] size_t dropped_count() const;

  /// Renders the buffered events as a Chrome trace JSON document.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    double ts_us;
    double dur_us;
    uint32_t pid;  ///< fleet run index (0 = solo process)
    uint32_t tid;
    const char* arg_name;  ///< nullptr = no args
    int64_t arg;
  };

  /// Buffered-event cap (~56 MB); beyond it events are counted, not kept.
  static constexpr size_t kMaxEvents = size_t{1} << 20;

  /// Renders the trace document; caller holds mutex_.
  [[nodiscard]] std::string render_locked() const;

  std::atomic<bool> recording_{false};
  std::atomic<uint32_t> run_index_{0};
  mutable std::mutex mutex_;
  std::string path_;
  std::vector<Event> events_;
  /// (pid, tid) -> name; pid keys the fleet run the name belongs to.
  std::map<std::pair<uint32_t, uint32_t>, std::string> track_names_;
  std::map<uint32_t, std::string> process_names_;
  size_t dropped_ = 0;
};

/// RAII run scope for the fleet scheduler: activates run `index` for the
/// current slice and restores the previous run on exit.
class TraceRunScope {
 public:
  TraceRunScope(uint32_t index, const std::string& name)
      : previous_(TraceSession::global().active_run()) {
    TraceSession::global().set_active_run(index, name);
  }
  ~TraceRunScope() { TraceSession::global().set_active_run(previous_); }
  TraceRunScope(const TraceRunScope&) = delete;
  TraceRunScope& operator=(const TraceRunScope&) = delete;

 private:
  uint32_t previous_;
};

/// RAII phase scope: times [construction, destruction), accumulates into
/// `accum_ns` (nanoseconds) and emits a trace event when recording.
/// `track` < 0 uses the calling thread's track.
class TracePhase {
 public:
  explicit TracePhase(const char* name, const char* cat = "antmd",
                      Counter* accum_ns = nullptr, int64_t track = -1,
                      const char* arg_name = nullptr, int64_t arg = 0)
      : name_(name),
        cat_(cat),
        accum_(accum_ns),
        track_(track),
        arg_name_(arg_name),
        arg_(arg),
        live_(enabled()) {
    if (live_) start_us_ = now_us();
  }

  ~TracePhase() {
    if (!live_) return;
    const double end_us = now_us();
    const double dur_us = end_us - start_us_;
    if (accum_) {
      accum_->add(static_cast<uint64_t>(dur_us * 1e3));
    }
    TraceSession& session = TraceSession::global();
    if (session.recording()) {
      uint32_t tid = track_ >= 0 ? static_cast<uint32_t>(track_)
                                 : static_cast<uint32_t>(
                                       detail::thread_index());
      session.emit_complete(name_, cat_, start_us_, dur_us, tid, arg_name_,
                            arg_);
    }
  }

  TracePhase(const TracePhase&) = delete;
  TracePhase& operator=(const TracePhase&) = delete;

 private:
  const char* name_;
  const char* cat_;
  Counter* accum_;
  int64_t track_;
  const char* arg_name_;
  int64_t arg_;
  bool live_;
  double start_us_ = 0.0;
};

/// RAII timer that only accumulates nanoseconds into a Counter (no trace
/// event) — for spots too hot or too numerous to appear on a timeline.
class ScopedTimer {
 public:
  explicit ScopedTimer(Counter& accum_ns) : ScopedTimer(&accum_ns) {}
  /// A null counter times nothing.
  explicit ScopedTimer(Counter* accum_ns)
      : accum_(accum_ns), live_(accum_ns != nullptr && enabled()) {
    if (live_) start_us_ = now_us();
  }
  ~ScopedTimer() {
    if (live_) accum_->add(static_cast<uint64_t>((now_us() - start_us_) * 1e3));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Counter* accum_;
  bool live_;
  double start_us_ = 0.0;
};

}  // namespace antmd::obs
