// Supervisor: the automatic recovery layer that makes a faulted run finish
// on its own.
//
// PR 2 taught the repo to *inject* faults and PR 3 to *observe* them; this
// closes the loop.  The supervisor wraps a simulation driver
// (md::Simulation or runtime::MachineSimulation) and owns the failure
// lifecycle:
//
//   detect    — HealthGuard-style numerical checks after each step, typed
//               IoError / NumericalError escapes from step(), modeled node
//               failures (alive-count drops), and a phase watchdog on the
//               modeled step time (a hung node stalls the bulk-synchronous
//               step far past any sane deadline)
//   classify  — transient (first few occurrences: retry is cheap and the
//               deterministic fault schedule usually moves on) vs fatal
//               (the retry budget is spent and the failure persists)
//   recover   — rollback to the newest entry of an in-memory snapshot
//               ring; when the ring cannot restore, restart from the last
//               good on-disk checkpoint (with `.bak` fallback)
//   degrade   — remap hung/failed nodes onto survivors (bit-exact), or
//               drop the on-disk mirror when the disk itself is failing
//   escalate  — give up with a typed RecoveryReport describing every
//               recovery decision taken, for the operator and exit-code 5
//
// Determinism contract (extends PR 1): when recovery succeeds the final
// trajectory is bit-identical to the fault-free run.  Rollbacks restore a
// bit-exact snapshot and recovery never touches the timestep or any physics
// parameter; retransmits, backoff waits and re-run steps are charged to
// modeled time and the resilience.supervisor.* metrics only.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/checkpoint.hpp"
#include "machine/transport.hpp"  // StepDelivery::kNoNode (header-only use)
#include "md/engine_api.hpp"
#include "obs/metrics.hpp"
#include "resilience/audit.hpp"
#include "resilience/health.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace antmd::resilience {

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
  kDegrade,   ///< remap a node / disable the failing mirror
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
  /// Numerical thresholds reused from the HealthGuard layer.
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

/// True for drivers that expose the modeled machine (node remap, step
/// breakdown, reliable transport) — the watchdog/remap paths only exist
/// there; md::Simulation is supervised for health and I/O alone.
template <typename Sim>
concept MachineDriver = requires(Sim& s) {
  s.mutable_engine();
  s.mutable_transport();
  s.last_breakdown();
  s.rebuild_distribution();
};

/// Any engine satisfying md::EngineApi is supervisable; the MachineDriver
/// refinement above just unlocks the watchdog/remap extras.
template <md::EngineApi Sim>
class Supervisor {
 public:
  Supervisor(Sim& sim, SupervisorConfig config)
      : sim_(&sim),
        config_(std::move(config)),
        ring_(config_.snapshot_ring_depth, config_.snapshot_ring_bytes) {
    if (config_.max_retries < 1) {
      throw ConfigError("supervisor max_retries must be >= 1");
    }
    if (config_.snapshot_interval < 1) {
      throw ConfigError("supervisor snapshot_interval must be >= 1");
    }
    if (!(config_.backoff_factor >= 1.0)) {
      throw ConfigError("supervisor backoff_factor must be >= 1");
    }
    if (config_.health.check_interval < 1) {
      throw ConfigError("health check_interval must be >= 1");
    }
  }

  /// Advances the simulation `steps` beyond its current step counter under
  /// supervision.  Returns the report; report.completed tells the caller
  /// whether the run delivered every step or escalation abandoned it.
  /// Activates SDC auditing per config().audit, optionally with a static-
  /// data scrubber (which must outlive the supervisor).  Idempotent-ish:
  /// calling again rebuilds the auditor (fresh schedule/baselines).  run()
  /// calls this automatically when config().audit.interval > 0 and no
  /// auditor exists yet, so CLI/fleet code only needs an explicit call to
  /// attach a scrubber.
  void enable_audit(Scrubber* scrubber = nullptr) {
    if (config_.audit.interval < 1) {
      throw ConfigError("enable_audit needs config.audit.interval >= 1");
    }
    auditor_.emplace(
        *sim_, config_.audit, scrubber,
        [this](uint64_t step, const std::string& blob) {
          ring_.push(step, blob);
          ref_energy_ = sim_->potential_energy() + sim_->kinetic_energy();
          ref_step_ = step;
          ++report_.snapshots;
          detail::supervisor_metrics().snapshot_bytes.set(
              static_cast<double>(ring_.bytes()));
          if (!config_.checkpoint_path.empty() && mirror_enabled_) {
            write_mirror(blob);
          }
        });
  }

  [[nodiscard]] const Auditor<Sim>* auditor() const {
    return auditor_ ? &*auditor_ : nullptr;
  }

  RecoveryReport run(size_t steps) {
    const uint64_t start = sim_->state().step;
    const uint64_t target = start + steps;
    if (!auditor_ && config_.audit.interval > 0) enable_audit();
    snapshot();
    if constexpr (MachineDriver<Sim>) {
      // First run() only: a node that died between two supervised runs is
      // still a drop the next run should observe and report.
      if (last_alive_ == 0) last_alive_ = sim_->engine().alive_node_count();
    }
    while (sim_->state().step < target && !escalated_) {
      FailureKind kind = FailureKind::kNone;
      std::string detail;
      try {
        sim_->step();
      } catch (const NumericalError& e) {
        kind = FailureKind::kNumerical;
        detail = e.what();
      } catch (const IoError& e) {
        kind = FailureKind::kIo;
        detail = e.what();
      }
      if (kind == FailureKind::kNone) {
        observe_degradations();
        detect(kind, detail);
      }
      if (kind == FailureKind::kNone && auditor_) {
        AuditVerdict verdict = auditor_->after_step();
        if (verdict.corrupted) {
          kind = FailureKind::kSilentCorruption;
          detail = std::move(verdict.detail);
        }
      }
      if (kind == FailureKind::kNone) {
        attempts_ = 0;
        // With auditing on the ring is fed verified blobs by the auditor's
        // on_verified callback instead — a cadence snapshot here could
        // capture corruption that has not been detected yet, making the
        // rollback target part of the problem.
        if (!auditor_ &&
            sim_->state().step - ring_.newest_step() >=
                static_cast<uint64_t>(config_.snapshot_interval)) {
          snapshot();
        }
        continue;
      }
      handle_failure(kind, detail);
    }
    report_.steps_delivered = sim_->state().step - start;
    report_.completed = !escalated_ && sim_->state().step >= target;
    detail::supervisor_metrics().recovery_modeled_s.set(
        report_.recovery_modeled_s);
    if (escalated_ && !config_.report_path.empty()) {
      try {
        write_recovery_report(config_.report_path, report_);
      } catch (const IoError& e) {
        // The report is advisory; a failing disk must not mask the real
        // failure.  The caller still gets it via the return value.
        report_.final_error += " (report not written: ";
        report_.final_error += e.what();
        report_.final_error += ")";
      }
    }
    return report_;
  }

  [[nodiscard]] const RecoveryReport& report() const { return report_; }

  /// Resident bytes held by the in-memory snapshot ring — the per-run
  /// memory cost the fleet layer folds into its eviction decisions.
  [[nodiscard]] size_t snapshot_bytes() const { return ring_.bytes(); }

 private:
  /// Post-step detection that does not unwind the stack: numerical health
  /// and the modeled phase watchdog.
  void detect(FailureKind& kind, std::string& detail) {
    const uint64_t step = sim_->state().step;
    const bool snapshot_due =
        step - ring_.newest_step() >=
        static_cast<uint64_t>(config_.snapshot_interval);
    if (step % static_cast<uint64_t>(config_.health.check_interval) == 0 ||
        snapshot_due) {
      std::string violation =
          find_violation(*sim_, config_.health, ref_energy_, ref_step_);
      if (!violation.empty()) {
        kind = FailureKind::kNumerical;
        detail = std::move(violation);
        return;
      }
    }
    if constexpr (MachineDriver<Sim>) {
      if (config_.watchdog_ms > 0 &&
          sim_->last_breakdown().total * 1e3 > config_.watchdog_ms) {
        kind = FailureKind::kWatchdog;
        detail = "modeled step time " +
                 std::to_string(sim_->last_breakdown().total * 1e3) +
                 " ms exceeds watchdog deadline " +
                 std::to_string(config_.watchdog_ms) + " ms";
      }
    }
  }

  /// Node drop-outs need no recovery (the engine's remap is bit-exact);
  /// they are recorded as degrade events so the report tells the story.
  void observe_degradations() {
    if constexpr (MachineDriver<Sim>) {
      const size_t alive = sim_->engine().alive_node_count();
      if (alive < last_alive_) {
        ++report_.node_remaps;
        detail::supervisor_metrics().remaps.add();
        record(FailureKind::kNodeFailure, RecoveryAction::kDegrade, 0.0,
               std::to_string(last_alive_ - alive) +
                   " node(s) failed; work remapped onto " +
                   std::to_string(alive) + " survivors");
        last_alive_ = alive;
      }
    }
  }

  void handle_failure(FailureKind kind, const std::string& detail_text) {
    auto& metrics = detail::supervisor_metrics();
    // Recovery moves the step counter; events carry the failing step.
    const uint64_t failed_step = sim_->state().step;
    ++report_.faults_detected;
    metrics.faults.add();

    if (kind == FailureKind::kWatchdog) {
      ++report_.watchdog_trips;
      metrics.watchdog_trips.add();
      if constexpr (MachineDriver<Sim>) {
        // A hung node is the canonical watchdog cause: remap it onto the
        // survivors (bit-exact) so the next step runs at full speed.  The
        // stall itself stays charged to modeled time.
        const size_t hung = sim_->transport().hung_node();
        if (hung != machine::StepDelivery::kNoNode) {
          sim_->mutable_transport().acknowledge_hang();
          sim_->mutable_engine().set_node_failed(hung);
          sim_->rebuild_distribution();
          last_alive_ = sim_->engine().alive_node_count();
          ++report_.node_remaps;
          metrics.remaps.add();
          record(kind, RecoveryAction::kDegrade, 0.0,
                 "node " + std::to_string(hung) +
                     " hung; remapped onto survivors: " + detail_text);
          attempts_ = 0;
          return;
        }
      }
      // No identified culprit: classify like a transient failure below.
    }

    if (kind == FailureKind::kSilentCorruption) {
      // Corruption episodes are budgeted separately from transient retries:
      // attempts_ resets on every clean step, so only a dedicated counter
      // can catch a node that keeps flipping bits across otherwise-healthy
      // intervals.  Exhausting it escalates (and in a fleet, quarantines).
      ++report_.corruptions;
      ++corruption_episodes_;
      if (corruption_episodes_ > config_.audit.max_recoveries) {
        escalate(kind,
                 detail_text + "; corruption budget (" +
                     std::to_string(config_.audit.max_recoveries) +
                     " episode(s)) exhausted — repeat corruption points at "
                     "failing hardware, not bad luck");
        return;
      }
    }

    // classify: transient while the episode's retry budget lasts.
    if (attempts_ >= config_.max_retries) {
      escalate(kind, detail_text);
      return;
    }
    const double backoff = backoff_cost(attempts_);
    ++attempts_;
    ++report_.retries;
    metrics.retries.add();
    report_.recovery_modeled_s += backoff;

    // recover: rollback to the snapshot ring; restart from disk when the
    // ring cannot restore.
    try {
      util::BinaryReader r(ring_.newest_blob());
      sim_->restore_checkpoint(r);
      ++report_.rollbacks;
      metrics.rollbacks.add();
      record(kind, RecoveryAction::kRollback, backoff,
             detail_text + " -> rolled back to step " +
                 std::to_string(ring_.newest_step()),
             failed_step);
      if (auditor_) auditor_->on_recovery();
      return;
    } catch (const Error& ring_error) {
      if (config_.checkpoint_path.empty()) {
        escalate(kind, detail_text + "; snapshot ring unusable (" +
                           ring_error.what() + ") and no checkpoint");
        return;
      }
      try {
        std::string primary_error;
        std::string used = io::load_checkpoint_v2_or_backup(
            config_.checkpoint_path, {{"sim", sim_}}, &primary_error);
        ++report_.restarts;
        metrics.restarts.add();
        // When the `.bak` mirror was used, say why the primary was
        // distrusted — "restored from backup" alone hides the evidence
        // (torn write? CRC mismatch? missing file?) the operator needs.
        record(kind, RecoveryAction::kRestart, backoff,
               detail_text + " -> restarted from " + used +
                   (primary_error.empty()
                        ? std::string{}
                        : " (primary rejected: " + primary_error + ")"),
               failed_step);
        if (auditor_) auditor_->on_recovery();
        return;
      } catch (const Error& disk_error) {
        escalate(kind, detail_text + "; ring and checkpoint both unusable (" +
                           disk_error.what() + ")");
        return;
      }
    }
  }

  void escalate(FailureKind kind, const std::string& detail_text) {
    auto& metrics = detail::supervisor_metrics();
    metrics.escalations.add();
    record(kind, RecoveryAction::kEscalate, 0.0, detail_text);
    report_.final_error = std::string(failure_kind_name(kind)) + ": " +
                          detail_text + " (after " +
                          std::to_string(attempts_) + " recovery attempts)";
    escalated_ = true;
  }

  void snapshot() {
    util::BinaryWriter w;
    sim_->save_checkpoint(w);
    ring_.push(sim_->state().step, w.buffer());
    ref_energy_ = sim_->potential_energy() + sim_->kinetic_energy();
    ref_step_ = sim_->state().step;
    ++report_.snapshots;
    detail::supervisor_metrics().snapshot_bytes.set(
        static_cast<double>(ring_.bytes()));
    if (!config_.checkpoint_path.empty() && mirror_enabled_) {
      write_mirror(w.buffer());
    }
  }

  /// The disk mirror gets its own local retry/degrade loop: a full disk
  /// must not kill an otherwise healthy run.
  void write_mirror(const std::string& blob) {
    auto& metrics = detail::supervisor_metrics();
    const std::string encoded = io::encode_checkpoint({{"sim", blob}});
    for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
      try {
        if (attempt == 0) {
          std::string rejected = io::rotate_backup(config_.checkpoint_path);
          if (!rejected.empty()) {
            // A corrupt primary discarded at rotation is a detected fault:
            // put the verification failure in the report instead of
            // silently deleting the evidence.
            record(FailureKind::kIo, RecoveryAction::kDegrade, 0.0,
                   "checkpoint primary failed verification at rotation (" +
                       rejected + "); previous backup retained");
          }
        }
        io::write_file_atomic(config_.checkpoint_path, encoded);
        return;
      } catch (const IoError& e) {
        ++report_.faults_detected;
        metrics.faults.add();
        if (attempt == config_.max_retries) {
          mirror_enabled_ = false;
          metrics.mirror_degrades.add();
          record(FailureKind::kIo, RecoveryAction::kDegrade, 0.0,
                 std::string(e.what()) +
                     " -> checkpoint mirror disabled; run continues on the "
                     "in-memory ring");
          return;
        }
        const double backoff = backoff_cost(attempt);
        ++report_.retries;
        metrics.retries.add();
        report_.recovery_modeled_s += backoff;
        record(FailureKind::kIo, RecoveryAction::kRetry, backoff, e.what());
      }
    }
  }

  [[nodiscard]] double backoff_cost(int attempt) const {
    double b = config_.backoff_initial_s;
    for (int i = 0; i < attempt; ++i) b *= config_.backoff_factor;
    return b;
  }

  /// Appends an event stamped with `step` (default: the current step).
  void record(FailureKind kind, RecoveryAction action, double backoff,
              std::string detail_text, std::optional<uint64_t> step = {}) {
    report_.events.push_back(RecoveryEvent{step.value_or(sim_->state().step),
                                           kind, action, backoff,
                                           std::move(detail_text)});
  }

  Sim* sim_;
  SupervisorConfig config_;
  SnapshotRing ring_;
  RecoveryReport report_;
  std::optional<Auditor<Sim>> auditor_;
  int attempts_ = 0;  ///< recovery attempts in the current failure episode
  int corruption_episodes_ = 0;  ///< lifetime SDC episodes (never resets)
  bool escalated_ = false;
  bool mirror_enabled_ = true;
  double ref_energy_ = 0.0;
  uint64_t ref_step_ = 0;
  size_t last_alive_ = 0;
};

}  // namespace antmd::resilience
