// Fleet scheduler: a fault-isolated multi-run service over one worker pool.
//
// The scheduler multiplexes hundreds of concurrent simulations — each a
// RunSpec-described tenant — over a single shared util::TaskRuntime.  Runs
// advance in priority-weighted time slices on the scheduler thread (one run
// is in flight at a time; its step graph fans out over the shared lanes),
// which is what makes the strong isolation properties cheap:
//
//   admission     submit() rejects work the fleet cannot hold — a queue
//                 past max_queued_runs (backpressure) or a run whose
//                 modeled footprint exceeds the whole memory budget.
//   containment   every run advances inside its own resilience::Supervisor
//                 and its own fault-injection scope; a transient failure
//                 rolls back or restarts that run alone, a fatal one
//                 quarantines it with a typed RecoveryReport.  Siblings
//                 never observe either.
//   fair share    stride scheduling over spec.priority: under contention a
//                 priority-2 run receives twice the slices of a priority-1
//                 sibling, and every active run's credit grows each round,
//                 so nothing starves.
//   eviction      when the resident-byte budget is hit, the victim (most
//                 progress since activation — it can best afford the round
//                 trip) is parked in a crash-safe v2 checkpoint, its engine
//                 freed, and it re-queues; rehydration rebuilds the engine
//                 from the spec and restores the checkpoint bit-exactly.
//
// Determinism: scheduling decisions are pure functions of (specs, config,
// submission order) — no wall-clock, no thread identity — so a fleet run
// is reproducible end to end, and every run's trajectory is bit-identical
// to executing its spec alone (the T5 contract extended to multi-tenancy).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fleet/run.hpp"
#include "obs/metrics.hpp"
#include "util/task_graph.hpp"

namespace antmd::fleet {

struct SchedulerConfig {
  /// Materialized engines resident at once (the rest queue or park).
  size_t max_active_runs = 8;
  /// Admission control: submissions past this many waiting runs are
  /// rejected (backpressure), never silently dropped.
  size_t max_queued_runs = 1024;
  /// Modeled resident-byte budget across all active runs (0 = unbounded).
  /// A single run whose estimate exceeds it is rejected at admission;
  /// pressure during execution evicts victims to checkpoints instead.
  size_t memory_budget_bytes = 0;
  /// Steps per time slice.  Smaller slices interleave tenants more finely
  /// (tighter fairness, faster status updates) at more supervisor
  /// snapshot overhead per delivered step.
  size_t slice_steps = 32;
  /// Worker lanes in the shared TaskRuntime every engine multiplexes over
  /// (1 = serial engines, no pool).
  size_t threads = 1;
  /// Directory for per-run checkpoints (supervisor mirrors + eviction
  /// parking).  "" disables both: eviction then quarantines the victim
  /// instead of parking it, so set this for any real fleet.
  std::string checkpoint_dir;
  /// Machine-readable JSON status file ("" = none), rewritten atomically
  /// every status_interval_slices slices and at run_to_completion exit.
  std::string status_path;
  int status_interval_slices = 16;
  /// Keep each completed run's final state as <checkpoint_dir>/<name>.final
  /// (v2 container) for collection by the operator.
  bool retain_final_state = false;
};

/// Aggregate outcome of run_to_completion().
struct FleetSummary {
  size_t submitted = 0;
  size_t completed = 0;
  size_t quarantined = 0;
  size_t rejected = 0;
  uint64_t slices = 0;
  uint64_t evictions = 0;
  uint64_t steps_delivered = 0;
  [[nodiscard]] std::string render() const;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission control.  Always returns the run's id; inspect
  /// status(id).phase — kQueued means admitted, kRejected means refused
  /// (status(id).detail says why).  Throws ConfigError only on a spec that
  /// cannot be described at all (empty name, duplicate name).
  uint64_t submit(RunSpec spec);

  /// One scheduling round: activate/rehydrate what fits, advance the
  /// fair-share winner by one slice, handle its outcome, enforce the
  /// memory budget.  Returns false when no non-terminal runs remain.
  bool pump();

  /// Pumps until every run is terminal; returns the tally.
  FleetSummary run_to_completion();

  [[nodiscard]] const RunStatus& status(uint64_t id) const;
  [[nodiscard]] std::vector<RunStatus> statuses() const;
  [[nodiscard]] size_t active_count() const { return active_.size(); }
  [[nodiscard]] size_t queued_count() const { return queue_.size(); }
  /// Modeled resident bytes across all active runs right now.
  [[nodiscard]] size_t resident_bytes() const;

  /// Status document, schema "antmd.fleet.status/v1".
  [[nodiscard]] std::string status_json() const;
  /// Writes status_json() to config.status_path via temp file + rename.
  /// Plain I/O, no fault-injection polling: a chaos schedule aimed at a
  /// tenant's checkpoints must not be consumed by the control plane.
  void write_status_file() const;

 private:
  struct Record {
    RunSpec spec;
    RunStatus status;
    std::unique_ptr<Driver> driver;  ///< live only while kRunning
    uint64_t steps_at_activation = 0;
    uint64_t credit = 0;  ///< stride-scheduling account
    /// Counter snapshot taken at activation: each activation gets a fresh
    /// Supervisor (report starts at zero), so slice accounting adds the
    /// live report onto this baseline.
    RunStatus counters_base;
    bool has_checkpoint = false;
    bool fault_armed = false;
  };

  void activate_from_queue();
  bool activate(Record& r);
  void run_slice(Record& r);
  void finish(Record& r, RunPhase phase, std::string detail);
  bool evict(Record& r);
  void enforce_memory_budget();
  void deactivate(Record& r);
  void remove_active(uint64_t id);
  [[nodiscard]] Record* pick_victim();
  [[nodiscard]] std::string checkpoint_path(const Record& r) const;
  void refresh_gauges();
  void maybe_write_status();

  SchedulerConfig config_;
  std::shared_ptr<util::TaskRuntime> runtime_;  ///< null when threads <= 1
  std::deque<Record> runs_;                     ///< indexed by run id
  std::deque<uint64_t> queue_;                  ///< FIFO of waiting run ids
  std::vector<uint64_t> active_;               ///< ids with live drivers
  uint64_t slices_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace antmd::fleet
