// Supervisor: the automatic recovery layer that makes a faulted run finish
// on its own, and the only rollback layer over md::Simulation.
//
// PR 2 taught the repo to *inject* faults and PR 3 to *observe* them; this
// closes the loop.  The supervisor wraps one md::Simulation — host or
// modeled machine — and owns the failure lifecycle:
//
//   detect    — numerical health checks after each step (find_violation),
//               typed IoError / NumericalError escapes from step(), and on
//               the machine, modeled node failures (alive-count drops) and
//               a phase watchdog on the modeled step time (a hung node
//               stalls the bulk-synchronous step far past any sane
//               deadline)
//   classify  — transient (first few occurrences: retry is cheap and the
//               deterministic fault schedule usually moves on) vs fatal
//               (the retry budget is spent and the failure persists);
//               HealthPolicy::kThrow makes every numerical failure fatal
//   recover   — rollback to the newest entry of an in-memory snapshot
//               ring; when the ring cannot restore, restart from the last
//               good on-disk checkpoint (with `.bak` fallback)
//   degrade   — remap hung/failed nodes onto survivors (bit-exact), drop
//               the on-disk mirror when the disk itself is failing, or
//               shrink the timestep after a numerical rollback when
//               health.dt_scale_on_retry < 1
//   escalate  — give up with a typed RecoveryReport describing every
//               recovery decision taken, for the operator and exit-code 5
//
// Determinism contract (extends PR 1): while health.dt_scale_on_retry = 1
// (the default) a successful recovery ends bit-identical to the fault-free
// run.  Rollbacks restore a bit-exact snapshot and recovery touches no
// physics parameter; retransmits, backoff waits and re-run steps are
// charged to modeled time and the resilience.supervisor.* metrics only.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "resilience/audit.hpp"

namespace antmd::runtime {
class MachineSimulation;
}  // namespace antmd::runtime

namespace antmd::resilience {

/// What the supervisor does with a numerical failure (a health violation
/// or a NumericalError from step()).
enum class HealthPolicy {
  kThrow,     ///< no retry: run() throws NumericalError on the first one
  kRollback,  ///< roll back and re-run within the retry budget
};

/// Numerical health thresholds and the numerical recovery policy.
struct HealthConfig {
  /// Positions: any non-finite component always trips; additionally any
  /// component with |x| above this bound (Å).
  double max_abs_position = 1e6;
  /// Forces: any non-finite component always trips; additionally any
  /// component above this bound (kcal/mol/Å).  The fault layer's poison
  /// sentinel (fault::kPoisonQuanta) dequantizes far above any physical
  /// force, so injected "NaN" forces are caught here.
  double max_force = 1e8;
  /// Instantaneous temperature bound (K); 0 disables.
  double max_temperature_k = 1e5;
  /// Allowed |Δ(potential + kinetic)| per step since the last good
  /// snapshot (kcal/mol); 0 disables.  Use only for NVE-like runs — a
  /// thermostat exchanges energy with the bath legitimately.
  double max_energy_drift = 0.0;
  /// Largest relative constraint violation tolerated after a step
  /// (SHAKE non-convergence detector); 0 disables.
  double max_constraint_violation = 1e-4;
  /// Check every N steps (1 = every step); snapshot steps always check.
  int check_interval = 1;
  HealthPolicy policy = HealthPolicy::kRollback;
  /// Timestep multiplier compounded at each numerical rollback, in (0, 1].
  /// 1 keeps the configured timestep, and with it bit-identity to the
  /// fault-free run.
  double dt_scale_on_retry = 1.0;
};

/// Returns a human-readable description of the first health violation in
/// `sim`'s current state, or an empty string.
[[nodiscard]] std::string find_violation(const md::Simulation& sim,
                                         const HealthConfig& config,
                                         double reference_energy,
                                         uint64_t reference_step);

enum class FailureKind {
  kNumerical,    ///< health violation or NumericalError from step()
  kIo,           ///< IoError from step() or the checkpoint mirror
  kNodeFailure,  ///< a modeled torus node dropped out (remap is automatic)
  kWatchdog,     ///< modeled step time blew the phase deadline
  kSilentCorruption,  ///< audit digest/scrub/shadow-replay mismatch (SDC)
  kNone,
};

enum class RecoveryAction {
  kRetry,     ///< re-run after a deterministic backoff
  kRollback,  ///< restore the newest in-memory snapshot
  kRestart,   ///< restore the on-disk checkpoint (.bak fallback)
  kDegrade,   ///< remap a node / disable the failing mirror / shrink dt
  kEscalate,  ///< recovery exhausted; run abandoned
};

[[nodiscard]] const char* failure_kind_name(FailureKind kind);
[[nodiscard]] const char* recovery_action_name(RecoveryAction action);

struct SupervisorConfig {
  /// Recovery attempts per failure episode before it is classified fatal.
  int max_retries = 3;
  /// Deterministic exponential backoff charged per retry (modeled seconds,
  /// never a wall-clock sleep — tests stay fast and reproducible).
  double backoff_initial_s = 1e-3;
  double backoff_factor = 2.0;
  /// Steps between in-memory snapshot-ring entries.
  int snapshot_interval = 50;
  /// Ring depth (newest entry is the rollback target).
  size_t snapshot_ring_depth = 4;
  /// Byte budget for the ring (0 = unbounded).  Large systems evict old
  /// entries past this bound even below the depth cap, so a run's resident
  /// snapshot cost is predictable — the fleet scheduler's admission and
  /// eviction decisions read it via snapshot_bytes() and the
  /// resilience.supervisor.snapshot_bytes gauge.
  size_t snapshot_ring_bytes = 0;
  /// Optional on-disk mirror of each ring snapshot (v2 container, atomic
  /// write, `.bak` rotation); also the restart source when the ring fails.
  std::string checkpoint_path;
  /// Modeled per-step deadline in milliseconds; 0 disables the watchdog.
  double watchdog_ms = 0.0;
  /// Numerical thresholds and policy.
  HealthConfig health;
  /// SDC audit settings (audit.interval = 0 leaves auditing off; > 0 makes
  /// run() construct an Auditor — call enable_audit() first to attach a
  /// static-data Scrubber).  With auditing on, the snapshot ring is fed
  /// only audit-verified blobs, so every rollback target is known-clean.
  AuditConfig audit;
  /// Where the RecoveryReport is written on escalation ("" = stderr only).
  std::string report_path;
};

/// One recovery decision, in the order taken.
struct RecoveryEvent {
  uint64_t step = 0;  ///< step at which the failure was detected
  FailureKind kind = FailureKind::kNone;
  RecoveryAction action = RecoveryAction::kRetry;
  double backoff_s = 0.0;
  std::string detail;
};

/// Typed outcome of a supervised run.
struct RecoveryReport {
  bool completed = false;        ///< run reached its target step count
  uint64_t steps_delivered = 0;  ///< net steps (re-runs not double counted)
  uint64_t faults_detected = 0;
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
  uint64_t restarts = 0;
  uint64_t node_remaps = 0;
  uint64_t watchdog_trips = 0;
  uint64_t corruptions = 0;  ///< silent-corruption episodes detected
  uint64_t snapshots = 0;
  /// Backoff waits and re-run charges attributed to recovery (modeled s).
  double recovery_modeled_s = 0.0;
  std::vector<RecoveryEvent> events;
  std::string final_error;  ///< empty when completed

  /// Human-readable multi-line rendering (also what gets written to disk).
  [[nodiscard]] std::string render() const;
};

/// Writes report.render() atomically; throws IoError on failure.
void write_recovery_report(const std::string& path,
                           const RecoveryReport& report);

namespace detail {

struct SupervisorMetrics {
  obs::Counter& faults;
  obs::Counter& retries;
  obs::Counter& rollbacks;
  obs::Counter& restarts;
  obs::Counter& remaps;
  obs::Counter& watchdog_trips;
  obs::Counter& escalations;
  obs::Counter& mirror_degrades;
  obs::Gauge& recovery_modeled_s;
  obs::Gauge& snapshot_bytes;
};

SupervisorMetrics& supervisor_metrics();

}  // namespace detail

/// Bounded ring of serialized last-good snapshots (newest-first rollback).
/// Bounded by entry count and, when max_bytes > 0, by total payload bytes;
/// the newest entry is never evicted, so rollback always has a target.
class SnapshotRing {
 public:
  explicit SnapshotRing(size_t depth, size_t max_bytes = 0)
      : depth_(depth ? depth : 1), max_bytes_(max_bytes) {}

  void push(uint64_t step, std::string blob);
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] size_t size() const { return entries_.size(); }
  /// Total serialized payload resident in the ring.
  [[nodiscard]] size_t bytes() const { return bytes_; }
  [[nodiscard]] uint64_t newest_step() const;
  [[nodiscard]] const std::string& newest_blob() const;

 private:
  size_t depth_;
  size_t max_bytes_;
  size_t bytes_ = 0;
  std::deque<std::pair<uint64_t, std::string>> entries_;
};

/// Supervises one simulation.  On the modeled machine it also watches node
/// failures and the phase watchdog; the host is supervised for health,
/// I/O and silent corruption.
class Supervisor {
 public:
  /// Throws ConfigError on out-of-range fields.  The simulation must
  /// outlive the supervisor.
  Supervisor(md::Simulation& sim, SupervisorConfig config);
  // The auditor's on_verified callback holds this object's address.
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Activates SDC auditing per config().audit, optionally with a static-
  /// data scrubber (which must outlive the supervisor).  Idempotent-ish:
  /// calling again rebuilds the auditor (fresh schedule/baselines).  run()
  /// calls this automatically when config().audit.interval > 0 and no
  /// auditor exists yet, so CLI/fleet code only needs an explicit call to
  /// attach a scrubber.
  void enable_audit(Scrubber* scrubber = nullptr);

  [[nodiscard]] const Auditor* auditor() const {
    return auditor_ ? &*auditor_ : nullptr;
  }

  /// Advances the simulation `steps` beyond its current step counter under
  /// supervision.  Returns the report; report.completed tells the caller
  /// whether the run delivered every step or escalation abandoned it.
  /// Throws NumericalError on a numerical failure under HealthPolicy::
  /// kThrow.
  RecoveryReport run(size_t steps);

  [[nodiscard]] const RecoveryReport& report() const { return report_; }

  /// Resident bytes held by the in-memory snapshot ring — the per-run
  /// memory cost the fleet layer folds into its eviction decisions.
  [[nodiscard]] size_t snapshot_bytes() const { return ring_.bytes(); }

 private:
  void detect(FailureKind& kind, std::string& detail);
  void observe_degradations();
  void handle_failure(FailureKind kind, const std::string& detail_text);
  /// After a recovery restored a snapshot: compounds the timestep
  /// reduction of a numerical failure and re-baselines the auditor.
  void after_restore(FailureKind kind);
  void escalate(FailureKind kind, const std::string& detail_text);
  /// Pushes `blob`, the state at `step`, to the ring and the on-disk
  /// mirror, and makes it the energy-drift reference.
  void keep_snapshot(uint64_t step, const std::string& blob);
  void snapshot();
  void write_mirror(const std::string& blob);
  [[nodiscard]] double backoff_cost(int attempt) const;
  /// Appends an event stamped with `step` (default: the current step).
  void record(FailureKind kind, RecoveryAction action, double backoff,
              std::string detail_text, std::optional<uint64_t> step = {});

  md::Simulation* sim_;
  runtime::MachineSimulation* machine_;  ///< sim_ on the machine, else null
  SupervisorConfig config_;
  SnapshotRing ring_;
  RecoveryReport report_;
  std::optional<Auditor> auditor_;
  int attempts_ = 0;  ///< recovery attempts in the current failure episode
  int corruption_episodes_ = 0;  ///< lifetime SDC episodes (never resets)
  bool escalated_ = false;
  bool mirror_enabled_ = true;
  double ref_energy_ = 0.0;
  uint64_t ref_step_ = 0;
  size_t last_alive_ = 0;
  double dt_factor_ = 1.0;  ///< cumulative timestep reduction from retries
};

}  // namespace antmd::resilience
