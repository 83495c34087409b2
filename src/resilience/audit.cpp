#include "resilience/audit.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "md/simulation.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/serialize.hpp"

namespace antmd::resilience {

void AuditConfig::validate() const {
  if (interval < 0) {
    throw ConfigError("audit interval must be >= 0 (0 = off)");
  }
  if (shadow_window < 0) {
    throw ConfigError("audit shadow_window must be >= 0 (0 = full interval)");
  }
  if (scrub_interval < 0) {
    throw ConfigError("audit scrub_interval must be >= 0 (0 = every audit)");
  }
  if (max_recoveries < 1) {
    throw ConfigError("audit max_recoveries must be >= 1");
  }
}

std::string StateDigest::diff(const StateDigest& other) const {
  std::string out;
  auto note = [&](bool same, const char* name) {
    if (same) return;
    if (!out.empty()) out += ",";
    out += name;
  };
  note(positions == other.positions, "positions");
  note(velocities == other.velocities, "velocities");
  note(box_clock == other.box_clock, "box_clock");
  note(forces == other.forces, "forces");
  note(energies == other.energies, "energies");
  note(driver == other.driver, "driver");
  return out.empty() ? "none" : out;
}

namespace detail {

AuditMetrics& audit_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static AuditMetrics metrics{
      reg.counter("resilience.audit.audits.count"),
      reg.counter("resilience.audit.shadow_replays.count"),
      reg.counter("resilience.audit.shadow_steps.count"),
      reg.counter("resilience.audit.scrubs.count"),
      reg.counter("resilience.audit.scrub_repairs.count"),
      reg.counter("resilience.audit.corruptions.count"),
      reg.counter("resilience.audit.time_ns"),
      reg.gauge("resilience.audit.snapshot_bytes")};
  return metrics;
}

}  // namespace detail

void Scrubber::add_region(std::string name, void* data, size_t bytes) {
  if (bytes == 0 || data == nullptr) return;
  Region r;
  r.name = std::move(name);
  r.data = static_cast<unsigned char*>(data);
  r.bytes = bytes;
  r.golden_crc = util::crc64(data, bytes);
  r.mirror.assign(r.data, r.data + bytes);
  total_bytes_ += bytes;
  regions_.push_back(std::move(r));
}

Scrubber::ScrubResult Scrubber::scrub() {
  ScrubResult result;
  for (Region& r : regions_) {
    ++result.regions_checked;
    if (util::crc64(r.data, r.bytes) == r.golden_crc) continue;
    std::memcpy(r.data, r.mirror.data(), r.bytes);
    ++result.repairs;
    if (!result.detail.empty()) result.detail += ",";
    result.detail += r.name;
  }
  return result;
}

std::string Scrubber::flip_bit(uint64_t bit_index) {
  if (total_bytes_ == 0) return {};
  uint64_t bit = bit_index % (total_bytes_ * 8);
  for (Region& r : regions_) {
    const uint64_t region_bits = r.bytes * 8;
    if (bit < region_bits) {
      r.data[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      return r.name;
    }
    bit -= region_bits;
  }
  return {};
}

StateDigest digest_state(const md::Simulation& sim) {
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

Auditor::Auditor(md::Simulation& sim, AuditConfig config, Scrubber* scrubber,
                 std::function<void(uint64_t, const std::string&)> on_verified)
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
  reschedule();
}

AuditVerdict Auditor::after_step() {
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
  // Audit walltime is its own phase bucket (resilience.audit).
  detail::audit_metrics().time_ns.add(
      static_cast<uint64_t>(timer.seconds() * 1e9));
  return verdict;
}

void Auditor::on_recovery() {
  have_baseline_ = false;
  baseline_blob_.clear();
  reschedule();
}

void Auditor::reschedule() {
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

uint64_t Auditor::scrub_stride() const {
  return config_.scrub_interval > 0
             ? static_cast<uint64_t>(config_.scrub_interval)
             : static_cast<uint64_t>(config_.interval);
}

void Auditor::capture_baseline() {
  util::BinaryWriter w;
  sim_->save_checkpoint(w);
  baseline_blob_ = w.buffer();
  baseline_step_ = sim_->state().step;
  baseline_crc_ = util::crc64(baseline_blob_.data(), baseline_blob_.size());
  have_baseline_ = true;
  detail::audit_metrics().snapshot_bytes.set(
      static_cast<double>(baseline_blob_.size()));
}

// The flips mutate live data silently — exactly what a particle strike
// does — and only the audit machinery can notice.
void Auditor::inject_faults() {
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

void Auditor::flip_state_bit(uint64_t bit_index) {
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

AuditVerdict Auditor::audit_now() {
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

AuditVerdict Auditor::flag_corruption(std::string detail) {
  ++stats_.corruptions;
  detail::audit_metrics().corruptions.add();
  return {true, std::move(detail)};
}

}  // namespace antmd::resilience
