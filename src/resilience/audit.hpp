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
// the physics hot paths gain no new loads; with auditing off the engines
// run byte-for-byte the same code as before.
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

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ff/energy.hpp"
#include "md/engine_api.hpp"
#include "md/state.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/serialize.hpp"

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

/// True while at least one Auditor is alive — one relaxed load.  With no
/// auditor the engines and supervisor run exactly the pre-audit code; this
/// gate exists so cheap call sites (metrics, scripts) can ask without
/// touching auditor objects.
[[nodiscard]] bool audit_enabled();

namespace detail {

void add_audit_refcount(int delta);

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
template <typename Sim>
[[nodiscard]] StateDigest digest_state(const Sim& sim) {
  StateDigest d;
  const State& s = sim.state();
  d.positions = util::crc64(s.positions.data(),
                            s.positions.size() * sizeof(Vec3));
  d.velocities = util::crc64(s.velocities.data(),
                             s.velocities.size() * sizeof(Vec3));
  uint64_t c = util::crc64_init();
  const Vec3 edges = s.box.edges();
  c = util::crc64_update(c, &edges, sizeof(edges));
  c = util::crc64_update(c, &s.time, sizeof(s.time));
  c = util::crc64_update(c, &s.step, sizeof(s.step));
  d.box_clock = util::crc64_final(c);

  const ForceResult& fr = sim.forces();
  c = util::crc64_init();
  for (size_t i = 0; i < fr.forces.size(); ++i) {
    const auto q = fr.forces.quanta(i);
    c = util::crc64_update(c, q.data(), sizeof(q));
  }
  d.forces = util::crc64_final(c);

  const EnergyBreakdown& e = fr.energy;
  const int64_t raws[] = {e.bond.raw(),          e.angle.raw(),
                          e.dihedral.raw(),      e.vdw.raw(),
                          e.coulomb_real.raw(),  e.coulomb_kspace.raw(),
                          e.coulomb_self.raw(),  e.pair14.raw(),
                          e.restraint.raw(),     e.external.raw()};
  d.energies = util::crc64(raws, sizeof(raws));

  util::BinaryWriter w;
  sim.save_physics_checkpoint(w);
  d.driver = util::crc64(w.buffer().data(), w.buffer().size());
  return d;
}

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

template <md::EngineApi Sim>
class Auditor {
 public:
  /// `on_verified(step, blob)` is invoked with the serialized state every
  /// time an audit passes clean — the supervisor wires it to its snapshot
  /// ring so rollback targets are always verified.  `scrubber` may be null
  /// (no static regions registered); it must outlive the auditor.
  Auditor(Sim& sim, AuditConfig config, Scrubber* scrubber = nullptr,
          std::function<void(uint64_t, const std::string&)> on_verified = {})
      : sim_(&sim),
        config_(std::move(config)),
        scrubber_(scrubber),
        on_verified_(std::move(on_verified)) {
    config_.validate();
    if (config_.interval < 1) {
      throw ConfigError("auditor needs interval >= 1 (0 means: do not "
                        "construct an Auditor at all)");
    }
    window_ = config_.shadow_window < 1
                  ? static_cast<uint64_t>(config_.interval)
                  : std::min<uint64_t>(
                        static_cast<uint64_t>(config_.shadow_window),
                        static_cast<uint64_t>(config_.interval));
    detail::add_audit_refcount(1);
    reschedule();
  }

  ~Auditor() { detail::add_audit_refcount(-1); }
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Polls injection, captures the shadow baseline when due, and audits
  /// when due.  Call after every completed step; cheap (a few integer
  /// compares) on non-audit steps.
  [[nodiscard]] AuditVerdict after_step() {
    md::WallTimer timer;
    inject_faults();
    const uint64_t step = sim_->state().step;
    AuditVerdict verdict;
    if (step >= next_audit_) {
      verdict = audit_now();
      reschedule();
    } else if (step >= next_capture_ && !have_baseline_) {
      capture_baseline();
    }
    charge(timer.seconds());
    return verdict;
  }

  /// Re-baselines after any supervisor rollback/restart: the retained
  /// snapshot and schedule refer to a timeline that no longer exists.
  void on_recovery() {
    have_baseline_ = false;
    baseline_blob_.clear();
    reschedule();
  }

  [[nodiscard]] const AuditStats& stats() const { return stats_; }
  [[nodiscard]] const AuditConfig& config() const { return config_; }
  /// Effective replay window in steps (shadow_window clamped to interval).
  [[nodiscard]] uint64_t window() const { return window_; }

 private:
  void reschedule() {
    const uint64_t step = sim_->state().step;
    next_audit_ = step + static_cast<uint64_t>(config_.interval);
    next_capture_ = next_audit_ - window_;
    if (scrubber_ && next_scrub_ <= step) {
      next_scrub_ = step + scrub_stride();
    }
    // Full-interval window: the baseline is the (verified) state right now.
    if (window_ == static_cast<uint64_t>(config_.interval)) {
      capture_baseline();
    }
  }

  [[nodiscard]] uint64_t scrub_stride() const {
    return config_.scrub_interval > 0
               ? static_cast<uint64_t>(config_.scrub_interval)
               : static_cast<uint64_t>(config_.interval);
  }

  void capture_baseline() {
    util::BinaryWriter w;
    sim_->save_checkpoint(w);
    baseline_blob_ = w.buffer();
    baseline_step_ = sim_->state().step;
    baseline_crc_ = util::crc64(baseline_blob_.data(),
                                baseline_blob_.size());
    have_baseline_ = true;
    detail::audit_metrics().snapshot_bytes.set(
        static_cast<double>(baseline_blob_.size()));
  }

  /// Deterministic SDC injection, polled once per completed step.  The
  /// flips mutate live data silently — exactly what a particle strike
  /// does — and only the audit machinery can notice.
  void inject_faults() {
    uint64_t payload = 0;
    if (fault::should_fire(fault::FaultKind::kBitFlipState, &payload)) {
      flip_state_bit(payload);
    }
    if (scrubber_ &&
        fault::should_fire(fault::FaultKind::kBitFlipTable, &payload)) {
      scrubber_->flip_bit(payload);
    }
    if (have_baseline_ &&
        fault::should_fire(fault::FaultKind::kBitFlipCheckpointBuffer,
                           &payload)) {
      std::string& b = baseline_blob_;
      if (!b.empty()) {
        const uint64_t bit = payload % (b.size() * 8);
        b[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(b[bit / 8]) ^ (1u << (bit % 8)));
      }
    }
  }

  /// Flips one bit of the positions/velocities arrays, addressed by a
  /// global bit index over positions||velocities (wrapped).
  void flip_state_bit(uint64_t bit_index) {
    State& s = sim_->mutable_state();
    const size_t pos_bytes = s.positions.size() * sizeof(Vec3);
    const size_t vel_bytes = s.velocities.size() * sizeof(Vec3);
    const size_t total_bits = (pos_bytes + vel_bytes) * 8;
    if (total_bits == 0) return;
    const uint64_t bit = bit_index % total_bits;
    const size_t byte = bit / 8;
    unsigned char* base =
        byte < pos_bytes
            ? reinterpret_cast<unsigned char*>(s.positions.data()) + byte
            : reinterpret_cast<unsigned char*>(s.velocities.data()) +
                  (byte - pos_bytes);
    *base ^= static_cast<unsigned char>(1u << (bit % 8));
  }

  [[nodiscard]] AuditVerdict audit_now() {
    auto& metrics = detail::audit_metrics();
    ++stats_.audits;
    metrics.audits.add();
    AuditVerdict verdict;

    // 1. Static-data scrub.  A repair means forces already computed with
    // the corrupt region tainted the dynamic state: report corruption so
    // the supervisor rolls back even though the region itself is fixed.
    const uint64_t step = sim_->state().step;
    if (scrubber_ && step >= next_scrub_) {
      ++stats_.scrubs;
      metrics.scrubs.add();
      next_scrub_ = step + scrub_stride();
      Scrubber::ScrubResult r = scrubber_->scrub();
      if (r.repairs > 0) {
        stats_.scrub_repairs += r.repairs;
        metrics.scrub_repairs.add(r.repairs);
        return flag_corruption("static data corrupt (repaired from golden "
                              "mirror): " + r.detail);
      }
    }

    // 2. Shadow re-execution from the retained baseline.
    if (have_baseline_) {
      if (util::crc64(baseline_blob_.data(), baseline_blob_.size()) !=
          baseline_crc_) {
        // The retained buffer itself took the hit; the live state is not
        // implicated but the rollback source would be, so report it — the
        // supervisor's ring holds an independent intact copy.
        have_baseline_ = false;
        return flag_corruption("retained audit snapshot buffer failed its "
                              "CRC (bit flip in checkpoint buffer)");
      }
      const StateDigest live = digest_state(*sim_);
      util::BinaryWriter live_writer;
      sim_->save_checkpoint(live_writer);

      StateDigest replayed;
      {
        // Replayed steps must be invisible: no fault events consumed, no
        // observer callbacks, no metrics-phase inflation.
        fault::InjectionPause pause;
        sim_->set_observers_enabled(false);
        obs::ScopedTelemetry telemetry_off(false);
        try {
          util::BinaryReader r(baseline_blob_);
          sim_->restore_checkpoint(r);
          while (sim_->state().step < step) sim_->step();
          ++stats_.shadow_replays;
          stats_.shadow_steps += step - baseline_step_;
          replayed = digest_state(*sim_);
          // Hand the live timeline back in BOTH outcomes.  On a mismatch
          // the supervisor decides recovery and its bookkeeping must see
          // the corrupted step counter; on a match the replay trajectory
          // is bitwise the live one, but replay-path accounting (modeled
          // time, transport counters after the restore's neighbor-list
          // rebuild) may differ, and verification must be invisible to
          // the run's telemetry too.
          util::BinaryReader lr(live_writer.buffer());
          sim_->restore_checkpoint(lr);
        } catch (...) {
          sim_->set_observers_enabled(true);
          throw;
        }
        sim_->set_observers_enabled(true);
      }
      metrics.shadow_replays.add();
      metrics.shadow_steps.add(step - baseline_step_);
      if (replayed != live) {
        return flag_corruption(
            "shadow replay of steps [" + std::to_string(baseline_step_) +
            ", " + std::to_string(step) + "] diverged in blocks: " +
            replayed.diff(live));
      }
      // Digests match: determinism says the replay landed bitwise back on
      // the live state — the run continues as if nothing happened.
    }

    have_baseline_ = false;
    if (on_verified_) {
      util::BinaryWriter w;
      sim_->save_checkpoint(w);
      on_verified_(step, w.buffer());
    }
    return verdict;
  }

  AuditVerdict flag_corruption(std::string detail) {
    ++stats_.corruptions;
    detail::audit_metrics().corruptions.add();
    return {true, std::move(detail)};
  }


  void charge(double seconds) {
    detail::audit_metrics().time_ns.add(
        static_cast<uint64_t>(seconds * 1e9));
    if constexpr (requires { sim_->charge_audit(seconds); }) {
      sim_->charge_audit(seconds);
    }
  }

  Sim* sim_;
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
