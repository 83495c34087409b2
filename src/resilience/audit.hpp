// Auditor: the silent-data-corruption (SDC) defense layer.
//
// Nothing in the failure model so far reports a flipped bit: a cosmic-ray
// hit in position state, a packed Hermite table, or a retained snapshot
// buffer raises no exception and trips no health threshold until the
// trajectory is long poisoned.  The repo's fixed-point determinism is what
// makes such corruption *detectable*: two executions of the same step
// interval must agree byte-for-byte, so divergence is proof of corruption,
// not noise.  The auditor exploits that with three mechanisms:
//
//   digest     — per-block CRC-64 over the fixed-point dynamic state
//                (positions, velocities, box/clock, force quanta, energy
//                accumulators, and the full driver checkpoint covering
//                thermostat/barostat/k-space internals) at a configurable
//                audit stride
//   shadow     — re-executes the last `shadow_window` steps from a retained
//                snapshot and compares digests bit-for-bit; determinism
//                guarantees equality, so any mismatch localizes corruption
//                to an interval and a state block.  On a match the replay
//                lands bitwise back on the live state, so verification is
//                invisible to the trajectory
//   scrub      — verifies registered static regions (packed spline tables,
//                topology arrays, exclusion lists) against golden CRC-64s
//                taken at registration and repairs from a pristine mirror
//                on mismatch
//
// Detection feeds resilience::Supervisor as FailureKind::kSilentCorruption;
// recovery is a snapshot-ring rollback to the last *verified* audit point
// (with auditing on, only verified blobs enter the ring), after which
// honest re-execution produces a trajectory bit-identical to the fault-free
// run.  Injection (util::fault kBitFlipState / kBitFlipTable /
// kBitFlipCheckpointBuffer) is polled once per step inside after_step(), so
// the physics hot paths gain no new loads; with no Auditor the engines run
// byte-for-byte the same code as before.
//
// Coverage/cost dial: shadow_window = 0 replays the whole audit interval —
// every state flip in the interval is caught at the next audit point, at
// roughly one redundant execution of the interval (the information-
// theoretic price of catching consumed-state flips).  A small window (the
// default) bounds the overhead to ~window/interval while still catching
// flips landing in the window before each audit; scrubbing and the
// retained-buffer CRC stay at full coverage either way.  DESIGN.md
// ("Failure model & recovery", SDC section) documents the trade.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace antmd::md {
class Simulation;
}  // namespace antmd::md

namespace antmd::resilience {

struct AuditConfig {
  /// Steps between audits; 0 disables the auditor entirely.
  int interval = 0;
  /// Steps re-executed per audit (clamped to the interval); 0 = replay the
  /// whole interval (full coverage, ~2x compute inside the interval).
  int shadow_window = 2;
  /// Steps between static-data scrubs; 0 = scrub at every audit point.
  int scrub_interval = 0;
  /// Corruption episodes tolerated before the supervisor escalates (and
  /// the fleet quarantines the run).  Counted separately from transient
  /// retries: repeat corruption is a sick node, not bad luck.
  int max_recoveries = 3;

  /// Throws ConfigError on out-of-range fields (negative strides/budgets).
  void validate() const;
};

/// Per-block CRC-64 digest of the dynamic simulation state.  Blocks are
/// split so a mismatch names the corrupted structure, not just "state".
struct StateDigest {
  uint64_t positions = 0;
  uint64_t velocities = 0;
  uint64_t box_clock = 0;  ///< box edges + simulation time + step counter
  uint64_t forces = 0;     ///< fixed-point force accumulator quanta
  uint64_t energies = 0;   ///< per-term energy accumulator quanta
  uint64_t driver = 0;     ///< save_physics_checkpoint(): thermostat
                           ///< and barostat state, timestep, k-space cache
                           ///< (the machine's performance accounting is
                           ///< telemetry and excluded — replay cadence
                           ///< legitimately shifts it without moving the
                           ///< trajectory)

  friend bool operator==(const StateDigest&, const StateDigest&) = default;

  /// Names of the blocks that differ, comma-separated ("positions,forces").
  [[nodiscard]] std::string diff(const StateDigest& other) const;
};

namespace detail {

struct AuditMetrics {
  obs::Counter& audits;
  obs::Counter& shadow_replays;
  obs::Counter& shadow_steps;
  obs::Counter& scrubs;
  obs::Counter& scrub_repairs;
  obs::Counter& corruptions;
  obs::Counter& time_ns;  ///< audit walltime, its own phase bucket
  obs::Gauge& snapshot_bytes;
};

AuditMetrics& audit_metrics();

}  // namespace detail

/// Golden-CRC verification and repair of static data regions.  Regions are
/// registered once after construction (tables and topology are immutable
/// for the life of a run); registration captures a CRC-64 and a pristine
/// byte mirror.  scrub() re-CRCs every region and memcpy-repairs any
/// mismatch from the mirror.  A repair is still reported as corruption —
/// forces computed while the region was corrupt have already tainted the
/// dynamic state, so the caller must roll back as well as repair.
class Scrubber {
 public:
  /// Registers a region; the pointer must stay valid (same address) for the
  /// scrubber's lifetime.  Zero-length regions are ignored.
  void add_region(std::string name, void* data, size_t bytes);

  /// Registers every region an object exposes via visit_scrub_regions()
  /// (ForceField, Topology, PairTableSet, RadialTable).
  template <typename T>
  void add_object(T& object) {
    object.visit_scrub_regions([this](const char* name, void* data,
                                      size_t bytes) {
      add_region(name, data, bytes);
    });
  }

  struct ScrubResult {
    uint64_t regions_checked = 0;
    uint64_t repairs = 0;
    std::string detail;  ///< names of repaired regions, comma-separated
  };

  /// Verifies every region, repairing mismatches from the mirror.
  [[nodiscard]] ScrubResult scrub();

  [[nodiscard]] size_t region_count() const { return regions_.size(); }
  [[nodiscard]] size_t total_bytes() const { return total_bytes_; }

  /// Deterministic injection hook (kBitFlipTable): flips one bit of the
  /// *live* data, addressed by a global bit index across all regions in
  /// registration order (wrapped modulo the total bit count).  Returns the
  /// name of the region hit, or empty when nothing is registered.
  std::string flip_bit(uint64_t bit_index);

 private:
  struct Region {
    std::string name;
    unsigned char* data = nullptr;
    size_t bytes = 0;
    uint64_t golden_crc = 0;
    std::vector<unsigned char> mirror;
  };
  std::vector<Region> regions_;
  size_t total_bytes_ = 0;
};

/// Computes the per-block digest of an engine's live state.  The virial is
/// deliberately excluded: it is double-precision barostat input outside
/// the determinism contract (ff/energy.hpp).
[[nodiscard]] StateDigest digest_state(const md::Simulation& sim);

/// Verdict of one after_step() poll.
struct AuditVerdict {
  bool corrupted = false;
  std::string detail;
};

/// Running totals for reports and tests.
struct AuditStats {
  uint64_t audits = 0;
  uint64_t shadow_replays = 0;
  uint64_t shadow_steps = 0;
  uint64_t scrubs = 0;
  uint64_t scrub_repairs = 0;
  uint64_t corruptions = 0;
};

class Auditor {
 public:
  /// `on_verified(step, blob)` is invoked with the serialized state every
  /// time an audit passes clean — the supervisor wires it to its snapshot
  /// ring so rollback targets are always verified.  `scrubber` may be null
  /// (no static regions registered); it must outlive the auditor, and so
  /// must `sim`.
  Auditor(md::Simulation& sim, AuditConfig config,
          Scrubber* scrubber = nullptr,
          std::function<void(uint64_t, const std::string&)> on_verified = {});

  /// Polls injection, captures the shadow baseline when due, and audits
  /// when due.  Call after every completed step; cheap (a few integer
  /// compares) on non-audit steps.
  [[nodiscard]] AuditVerdict after_step();

  /// Re-baselines after any supervisor rollback/restart: the retained
  /// snapshot and schedule refer to a timeline that no longer exists.
  void on_recovery();

  [[nodiscard]] const AuditStats& stats() const { return stats_; }
  [[nodiscard]] const AuditConfig& config() const { return config_; }
  /// Effective replay window in steps (shadow_window clamped to interval).
  [[nodiscard]] uint64_t window() const { return window_; }

 private:
  void reschedule();
  [[nodiscard]] uint64_t scrub_stride() const;
  void capture_baseline();
  /// Deterministic SDC injection, polled once per completed step.
  void inject_faults();
  /// Flips one bit of the positions/velocities arrays, addressed by a
  /// global bit index over positions||velocities (wrapped).
  void flip_state_bit(uint64_t bit_index);
  [[nodiscard]] AuditVerdict audit_now();
  AuditVerdict flag_corruption(std::string detail);

  md::Simulation* sim_;
  AuditConfig config_;
  Scrubber* scrubber_;
  std::function<void(uint64_t, const std::string&)> on_verified_;
  AuditStats stats_;
  uint64_t window_ = 0;
  uint64_t next_audit_ = 0;
  uint64_t next_capture_ = 0;
  uint64_t next_scrub_ = 0;
  bool have_baseline_ = false;
  std::string baseline_blob_;
  uint64_t baseline_step_ = 0;
  uint64_t baseline_crc_ = 0;
};

}  // namespace antmd::resilience
