// Deterministic fault injection for robustness testing.
//
// Long production runs die from exactly the failures that never happen in
// short CI runs: full disks, torn checkpoint writes, numerical blow-ups,
// dead torus nodes.  This registry lets tests (and chaos-style soak runs)
// arm those failures deterministically — a fault fires after a fixed number
// of qualifying events, or with a seed-driven probability per event — so
// every recovery path in io/, md/ and runtime/ is exercisable from CI with
// reproducible schedules.
//
// Injection points poll should_fire(kind) at the site where the real
// failure would occur:
//   kIoWriteFail   io::checkpoint atomic write    -> throws IoError (ENOSPC)
//   kIoShortWrite  io::checkpoint atomic write    -> truncated blob is
//                  renamed into place (a torn write the CRC must catch);
//                  also polled by io::XyzWriter::write_frame, where half a
//                  trajectory frame reaches the disk and io::repair_xyz
//                  must truncate back to the last complete frame
//   kNanForce      md and machine force providers -> poisons one atom's
//                  force accumulator with kPoisonQuanta (once per
//                  evaluation; not in RESPA's bonded-only pass, nor in
//                  the machine's restore)
//   kNodeFail      DistributedEngine::redistribute -> marks a torus node
//                  failed; its work is remapped to surviving nodes.  Polled
//                  on every redistribute: the machine provider's list
//                  rebuilds, its redistribute after a force-field mutation
//                  (partitions_stale) and the supervisor's recovery path
//   kLinkDrop      machine::ReliableTransport      -> a message is dropped
//                  on its torus link; the ack times out and the transport
//                  retransmits with exponential backoff, down-marking the
//                  link when the retry budget runs out
//   kPacketCorrupt machine::ReliableTransport      -> a message payload is
//                  bit-flipped in flight; the per-message CRC-32 rejects it
//                  and the receiver nacks for a retransmit
//   kNodeHang      machine::ReliableTransport      -> a node stops acking
//                  for a modeled interval; the step stalls until the
//                  supervisor's phase watchdog fires and remaps the node
//   kBitFlipState  resilience::Auditor (per step)  -> flips one bit of the
//                  dynamic fixed-point state (positions/velocities); no
//                  exception fires — only the audit digest/shadow-replay
//                  path can see it.  payload selects the bit (see
//                  resilience/audit.hpp)
//   kBitFlipTable  resilience::Auditor (per step)  -> flips one bit of a
//                  registered static region (packed Hermite tables,
//                  topology arrays, exclusion lists); the scrubber must
//                  detect and repair it from the golden mirror
//   kBitFlipCheckpointBuffer resilience::Auditor   -> flips one bit of the
//                  retained audit snapshot buffer, exercising the
//                  "recovery source itself corrupted" path
//
// The injector is process-global and thread-safe: injection points may sit
// inside task-graph worker lanes (the cluster-kernel force poison fires
// from the step DAG's reduction task, on whichever lane picks it up), so
// every registry operation synchronizes on an internal lock behind a
// relaxed armed-plan fast path — when nothing is armed, should_fire() is a
// single atomic load.  Event/fire counts stay deterministic because the
// *sites* poll deterministically; which thread polls never matters.
//
// Scopes (fleet multi-tenancy): a plan armed with arm_scoped(scope, plan)
// fires only while that scope is current (fault::CurrentScope RAII, set by
// the fleet scheduler around one run's time slice), and counts qualifying
// events only while current.  Scope 0 is the global scope: plans armed with
// plain arm() behave exactly as before and fire regardless of the current
// scope.  This is what lets a chaos schedule target one tenant of a
// 256-run fleet without its siblings ever observing a fault.
//
// Tests use ScopedFault so a failing test cannot leak an armed fault into
// the next one.
#pragma once

#include <cstdint>
#include <string>

namespace antmd::fault {

enum class FaultKind : uint32_t {
  kIoWriteFail = 0,   ///< checkpoint write throws IoError (disk full)
  kIoShortWrite = 1,  ///< checkpoint blob is truncated but "succeeds"
  kNanForce = 2,      ///< one atom's force result is poisoned
  kNodeFail = 3,      ///< a modeled torus node drops out
  kLinkDrop = 4,      ///< a torus link silently drops a modeled message
  kPacketCorrupt = 5, ///< a modeled message payload is corrupted in flight
  kNodeHang = 6,      ///< a modeled node stops responding for an interval
  kBitFlipState = 7,  ///< one bit of dynamic fixed-point state flips
  kBitFlipTable = 8,  ///< one bit of a static table/topology region flips
  kBitFlipCheckpointBuffer = 9,  ///< one bit of a retained snapshot flips
  kCount = 10,
};

/// Sentinel force quanta injected by kNanForce: dequantizes to ~±5.5e11
/// kcal/mol/Å, far beyond any physical force, so health checks treat it
/// like a non-finite value.
inline constexpr int64_t kPoisonQuanta = int64_t{1} << 53;

struct FaultPlan {
  FaultKind kind = FaultKind::kIoWriteFail;
  /// Number of qualifying events to let pass before the fault can fire.
  uint64_t fire_after = 0;
  /// How many times to fire once eligible (-1 = every eligible event).
  int64_t count = 1;
  /// If in (0, 1), each eligible event fires with this probability using a
  /// splitmix64 stream keyed by `seed` (deterministic across runs/threads).
  double probability = 1.0;
  uint64_t seed = 0;
  /// Kind-specific payload (kNodeFail: node id; kNanForce: atom index;
  /// kNodeHang: node id; kLinkDrop/kPacketCorrupt: unused — the fault hits
  /// whichever message polls the injection point).
  uint64_t payload = 0;
};

/// Tenancy scope for fault plans.  0 is the global scope (plain arm()).
using ScopeId = uint64_t;
inline constexpr ScopeId kGlobalScope = 0;

/// Arms a fault in the global scope (replacing any armed global plan of the
/// same kind).
void arm(const FaultPlan& plan);

/// Arms a fault visible only while `scope` is current (replacing any armed
/// plan of the same kind in that scope).  scope == kGlobalScope is arm().
void arm_scoped(ScopeId scope, const FaultPlan& plan);

/// Disarms one kind / all kinds in the global scope.
void disarm(FaultKind kind);
void disarm_all();

/// Disarms every plan of one scope (fleet teardown of a finished tenant).
void disarm_scope(ScopeId scope);

/// Sets/reads the current tenancy scope.  Scoped plans only see events that
/// occur while their scope is current; the global scope's plans see all.
void set_current_scope(ScopeId scope);
[[nodiscard]] ScopeId current_scope();

/// RAII current-scope switch (fleet scheduler around one run's time slice).
class CurrentScope {
 public:
  explicit CurrentScope(ScopeId scope) : previous_(current_scope()) {
    set_current_scope(scope);
  }
  ~CurrentScope() { set_current_scope(previous_); }
  CurrentScope(const CurrentScope&) = delete;
  CurrentScope& operator=(const CurrentScope&) = delete;

 private:
  ScopeId previous_;
};

/// True if a plan (possibly exhausted) is armed for `kind` globally.
[[nodiscard]] bool armed(FaultKind kind);

/// Polls the injection point: counts the event, decides deterministically
/// whether the fault fires now, and if so copies the plan's payload out.
/// The current scope's plan (if any) takes precedence over a global plan.
/// Never fires when nothing is armed (the zero-overhead common case).
[[nodiscard]] bool should_fire(FaultKind kind, uint64_t* payload = nullptr);

/// Number of times `kind` actually fired since it was last armed (global
/// scope; the scoped variant reports one tenant's schedule).
[[nodiscard]] uint64_t fired_count(FaultKind kind);
[[nodiscard]] uint64_t fired_count_scoped(ScopeId scope, FaultKind kind);

/// Number of qualifying events `kind`'s global plan has counted since it
/// was armed.  Checkpoint/resume flows use this to re-arm the remaining
/// schedule at the same absolute events: re-arming with
/// fire_after' = fire_after - event_count(kind) keeps the fault firing at
/// the same absolute step after a resume.
[[nodiscard]] uint64_t event_count(FaultKind kind);

/// Suspends all fault injection while at least one pause is live:
/// should_fire() returns false WITHOUT counting the event, so a paused
/// region is invisible to every armed schedule.  The audit layer's shadow
/// re-execution wraps itself in this — replayed steps must not consume
/// fault events, or the chaos schedule would drift relative to the
/// uninterrupted run.  Process-global (injection points poll from
/// task-graph worker lanes, so a thread-local pause would miss them);
/// nestable.
class InjectionPause {
 public:
  InjectionPause();
  ~InjectionPause();
  InjectionPause(const InjectionPause&) = delete;
  InjectionPause& operator=(const InjectionPause&) = delete;
};

/// Parses a fault spec `kind[:fire_after[:count[:payload]]]` — e.g.
/// "link_drop:40", "nan_force:10:1", "node_hang:25:1:5" — into a plan.
/// Kinds: io_write_fail io_short_write nan_force node_fail link_drop
/// packet_corrupt node_hang bit_flip_state bit_flip_table
/// bit_flip_checkpoint_buffer.  Throws ConfigError on a malformed spec.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// RAII arm/disarm for tests: disarms the plan's kind on scope exit.
class ScopedFault {
 public:
  explicit ScopedFault(const FaultPlan& plan) : kind_(plan.kind) {
    arm(plan);
  }
  ~ScopedFault() { disarm(kind_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  FaultKind kind_;
};

}  // namespace antmd::fault
