#include "resilience/supervisor.hpp"

#include <cmath>
#include <sstream>

#include "io/checkpoint.hpp"
#include "machine/transport.hpp"
#include "md/simulation.hpp"
#include "runtime/machine_sim.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace antmd::resilience {

std::string find_violation(const md::Simulation& sim,
                           const HealthConfig& config,
                           double reference_energy, uint64_t reference_step) {
  const State& state = sim.state();
  for (size_t i = 0; i < state.positions.size(); ++i) {
    const Vec3& p = state.positions[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      return "non-finite position of atom " + std::to_string(i);
    }
    if (std::fabs(p.x) > config.max_abs_position ||
        std::fabs(p.y) > config.max_abs_position ||
        std::fabs(p.z) > config.max_abs_position) {
      return "position of atom " + std::to_string(i) + " exceeds " +
             std::to_string(config.max_abs_position) + " A";
    }
  }
  const auto& forces = sim.forces().forces;
  for (size_t i = 0; i < forces.size(); ++i) {
    Vec3 f = forces.force(i);
    if (!std::isfinite(f.x) || !std::isfinite(f.y) || !std::isfinite(f.z)) {
      return "non-finite force on atom " + std::to_string(i);
    }
    if (std::fabs(f.x) > config.max_force ||
        std::fabs(f.y) > config.max_force ||
        std::fabs(f.z) > config.max_force) {
      return "force on atom " + std::to_string(i) + " exceeds " +
             std::to_string(config.max_force) + " kcal/mol/A";
    }
  }
  if (config.max_temperature_k > 0) {
    double t = sim.temperature();
    if (!std::isfinite(t) || t > config.max_temperature_k) {
      return "temperature " + std::to_string(t) + " K exceeds " +
             std::to_string(config.max_temperature_k) + " K";
    }
  }
  if (config.max_energy_drift > 0 && state.step > reference_step) {
    double e = sim.potential_energy() + sim.kinetic_energy();
    double allowed = config.max_energy_drift *
                     static_cast<double>(state.step - reference_step);
    if (!std::isfinite(e) || std::fabs(e - reference_energy) > allowed) {
      return "energy drifted by " + std::to_string(e - reference_energy) +
             " kcal/mol since step " + std::to_string(reference_step);
    }
  }
  if (config.max_constraint_violation > 0 && !sim.constraints().empty()) {
    double v = sim.constraints().max_violation(state.positions, state.box);
    if (!std::isfinite(v) || v > config.max_constraint_violation) {
      return "constraint violation " + std::to_string(v) + " exceeds " +
             std::to_string(config.max_constraint_violation);
    }
  }
  return {};
}

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNumerical:
      return "numerical";
    case FailureKind::kIo:
      return "io";
    case FailureKind::kNodeFailure:
      return "node-failure";
    case FailureKind::kWatchdog:
      return "watchdog";
    case FailureKind::kSilentCorruption:
      return "silent-corruption";
    case FailureKind::kNone:
      return "none";
  }
  return "unknown";
}

const char* recovery_action_name(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kRetry:
      return "retry";
    case RecoveryAction::kRollback:
      return "rollback";
    case RecoveryAction::kRestart:
      return "restart";
    case RecoveryAction::kDegrade:
      return "degrade";
    case RecoveryAction::kEscalate:
      return "escalate";
  }
  return "unknown";
}

std::string RecoveryReport::render() const {
  std::ostringstream os;
  os << "recovery report: "
     << (completed ? "run completed" : "run abandoned") << "\n"
     << "  steps delivered:    " << steps_delivered << "\n"
     << "  faults detected:    " << faults_detected << "\n"
     << "  retries:            " << retries << "\n"
     << "  rollbacks:          " << rollbacks << "\n"
     << "  restarts:           " << restarts << "\n"
     << "  node remaps:        " << node_remaps << "\n"
     << "  watchdog trips:     " << watchdog_trips << "\n"
     << "  corruptions:        " << corruptions << "\n"
     << "  snapshots:          " << snapshots << "\n"
     << "  recovery modeled s: " << recovery_modeled_s << "\n";
  if (!final_error.empty()) {
    os << "  final error:        " << final_error << "\n";
  }
  if (!events.empty()) {
    os << "  events:\n";
    for (const RecoveryEvent& e : events) {
      os << "    step " << e.step << " [" << failure_kind_name(e.kind) << " -> "
         << recovery_action_name(e.action) << "]";
      if (e.backoff_s > 0) os << " backoff=" << e.backoff_s << "s";
      os << " " << e.detail << "\n";
    }
  }
  return std::move(os).str();
}

void write_recovery_report(const std::string& path,
                           const RecoveryReport& report) {
  io::write_file_atomic(path, report.render());
}

namespace detail {

SupervisorMetrics& supervisor_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static SupervisorMetrics m{
      reg.counter("resilience.supervisor.fault.count"),
      reg.counter("resilience.supervisor.retry.count"),
      reg.counter("resilience.supervisor.rollback.count"),
      reg.counter("resilience.supervisor.restart.count"),
      reg.counter("resilience.supervisor.remap.count"),
      reg.counter("resilience.supervisor.watchdog.count"),
      reg.counter("resilience.supervisor.escalation.count"),
      reg.counter("resilience.supervisor.mirror_degrade.count"),
      reg.gauge("resilience.supervisor.recovery_modeled_seconds"),
      reg.gauge("resilience.supervisor.snapshot_bytes")};
  return m;
}

}  // namespace detail

void SnapshotRing::push(uint64_t step, std::string blob) {
  if (!entries_.empty() && entries_.back().first == step) {
    bytes_ -= entries_.back().second.size();
    bytes_ += blob.size();
    entries_.back().second = std::move(blob);  // refresh in place
  } else {
    bytes_ += blob.size();
    entries_.emplace_back(step, std::move(blob));
  }
  // Depth cap, then byte budget; the newest entry always survives so a
  // rollback target exists even when one snapshot exceeds the budget.
  while (entries_.size() > depth_ ||
         (max_bytes_ > 0 && bytes_ > max_bytes_ && entries_.size() > 1)) {
    bytes_ -= entries_.front().second.size();
    entries_.pop_front();
  }
}

uint64_t SnapshotRing::newest_step() const {
  if (entries_.empty()) {
    throw Error("snapshot ring is empty");
  }
  return entries_.back().first;
}

const std::string& SnapshotRing::newest_blob() const {
  if (entries_.empty()) {
    throw Error("snapshot ring is empty");
  }
  return entries_.back().second;
}

Supervisor::Supervisor(md::Simulation& sim, SupervisorConfig config)
    : sim_(&sim),
      machine_(dynamic_cast<runtime::MachineSimulation*>(&sim)),
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
  if (!(config_.health.dt_scale_on_retry > 0 &&
        config_.health.dt_scale_on_retry <= 1)) {
    throw ConfigError("health dt_scale_on_retry must be in (0, 1]");
  }
}

void Supervisor::enable_audit(Scrubber* scrubber) {
  if (config_.audit.interval < 1) {
    throw ConfigError("enable_audit needs config.audit.interval >= 1");
  }
  auditor_.emplace(*sim_, config_.audit, scrubber,
                   [this](uint64_t step, const std::string& blob) {
                     keep_snapshot(step, blob);
                   });
}

RecoveryReport Supervisor::run(size_t steps) {
  const uint64_t start = sim_->state().step;
  const uint64_t target = start + steps;
  if (!auditor_ && config_.audit.interval > 0) enable_audit();
  snapshot();
  // First run() only: a node that died between two supervised runs is
  // still a drop the next run should observe and report.
  if (machine_ && last_alive_ == 0) {
    last_alive_ = machine_->engine().alive_node_count();
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

// Post-step detection that does not unwind the stack: numerical health
// and the modeled phase watchdog.
void Supervisor::detect(FailureKind& kind, std::string& detail) {
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
  if (machine_ && config_.watchdog_ms > 0 &&
      machine_->last_breakdown().total * 1e3 > config_.watchdog_ms) {
    kind = FailureKind::kWatchdog;
    detail = "modeled step time " +
             std::to_string(machine_->last_breakdown().total * 1e3) +
             " ms exceeds watchdog deadline " +
             std::to_string(config_.watchdog_ms) + " ms";
  }
}

// Node drop-outs need no recovery (the engine's remap is bit-exact); they
// are recorded as degrade events so the report tells the story.
void Supervisor::observe_degradations() {
  if (!machine_) return;
  const size_t alive = machine_->engine().alive_node_count();
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

void Supervisor::handle_failure(FailureKind kind,
                                const std::string& detail_text) {
  auto& metrics = detail::supervisor_metrics();
  // Recovery moves the step counter; events carry the failing step.
  const uint64_t failed_step = sim_->state().step;
  ++report_.faults_detected;
  metrics.faults.add();

  if (kind == FailureKind::kNumerical &&
      config_.health.policy == HealthPolicy::kThrow) {
    escalate(kind, detail_text);
    throw NumericalError("step " + std::to_string(failed_step) + ": " +
                         report_.final_error);
  }

  if (kind == FailureKind::kWatchdog) {
    ++report_.watchdog_trips;
    metrics.watchdog_trips.add();
    // A hung node is the canonical watchdog cause: remap it onto the
    // survivors (bit-exact) so the next step runs at full speed.  The
    // stall itself stays charged to modeled time.  Only the machine trips
    // the watchdog.
    const size_t hung = machine_->transport().hung_node();
    if (hung != machine::StepDelivery::kNoNode) {
      machine_->mutable_transport().acknowledge_hang();
      machine_->mutable_engine().set_node_failed(hung);
      machine_->rebuild_distribution();
      last_alive_ = machine_->engine().alive_node_count();
      ++report_.node_remaps;
      metrics.remaps.add();
      record(kind, RecoveryAction::kDegrade, 0.0,
             "node " + std::to_string(hung) +
                 " hung; remapped onto survivors: " + detail_text);
      attempts_ = 0;
      return;
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
    after_restore(kind);
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
      after_restore(kind);
      return;
    } catch (const Error& disk_error) {
      escalate(kind, detail_text + "; ring and checkpoint both unusable (" +
                         disk_error.what() + ")");
      return;
    }
  }
}

void Supervisor::after_restore(FailureKind kind) {
  // The restore rewound dt to the snapshot's value; compound the reduction
  // across retries so repeated numerical failures keep shrinking it.
  // Before the auditor re-baselines, so its replays run at the new dt.
  if (kind == FailureKind::kNumerical &&
      config_.health.dt_scale_on_retry != 1.0) {
    dt_factor_ *= config_.health.dt_scale_on_retry;
    sim_->set_timestep_fs(sim_->timestep_fs() * dt_factor_);
    record(kind, RecoveryAction::kDegrade, 0.0,
           "timestep reduced to " + std::to_string(sim_->timestep_fs()) +
               " fs");
  }
  if (auditor_) auditor_->on_recovery();
}

void Supervisor::escalate(FailureKind kind, const std::string& detail_text) {
  detail::supervisor_metrics().escalations.add();
  record(kind, RecoveryAction::kEscalate, 0.0, detail_text);
  report_.final_error = std::string(failure_kind_name(kind)) + ": " +
                        detail_text + " (after " + std::to_string(attempts_) +
                        " recovery attempts)";
  escalated_ = true;
}

void Supervisor::keep_snapshot(uint64_t step, const std::string& blob) {
  ring_.push(step, blob);
  ref_energy_ = sim_->potential_energy() + sim_->kinetic_energy();
  ref_step_ = step;
  ++report_.snapshots;
  detail::supervisor_metrics().snapshot_bytes.set(
      static_cast<double>(ring_.bytes()));
  if (!config_.checkpoint_path.empty() && mirror_enabled_) {
    write_mirror(blob);
  }
}

void Supervisor::snapshot() {
  util::BinaryWriter w;
  sim_->save_checkpoint(w);
  keep_snapshot(sim_->state().step, w.buffer());
}

// The disk mirror gets its own local retry/degrade loop: a full disk must
// not kill an otherwise healthy run.
void Supervisor::write_mirror(const std::string& blob) {
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

double Supervisor::backoff_cost(int attempt) const {
  double b = config_.backoff_initial_s;
  for (int i = 0; i < attempt; ++i) b *= config_.backoff_factor;
  return b;
}

void Supervisor::record(FailureKind kind, RecoveryAction action,
                        double backoff, std::string detail_text,
                        std::optional<uint64_t> step) {
  report_.events.push_back(RecoveryEvent{step.value_or(sim_->state().step),
                                         kind, action, backoff,
                                         std::move(detail_text)});
}

}  // namespace antmd::resilience
