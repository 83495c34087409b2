// Timing model: converts per-step workload counts (from the functional
// simulation) into modeled step time on the configured machine.
//
// The step is modeled as the phase sequence Anton executes:
//   1. position multicast (fixed-point positions to importing nodes)
//   2. interaction phase — HTIS pair pipelines and geometry-core force work
//      (bonded terms, restraints, generality extensions) run CONCURRENTLY
//   3. force reduction (returns to home nodes)
//   4. update phase on geometry cores (integration, constraints, vsites,
//      thermostat) — serial after forces
//   5. k-space phase when due: spread → distributed FFT (compute + two
//      all-to-all transposes) → convolve → inverse FFT → interpolate
//   6. global barrier
// Step time is the max over nodes within each phase (bulk-synchronous).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "machine/config.hpp"
#include "machine/torus.hpp"

namespace antmd::machine {

/// Per-node workload for one MD step (functional counts, no time units).
struct NodeWork {
  size_t pairs = 0;              ///< tabulated pair evaluations (HTIS)
  size_t pairs_examined = 0;     ///< match-unit candidates (0 = same as pairs)
  /// Blocked cluster-pair kernel counts.  When cluster_tiles > 0 the HTIS
  /// phase is charged per streamed tile lane (cluster_lanes = tiles × 16,
  /// masked-off lanes included — the pipeline cannot skip them) instead of
  /// per matched pair, and the match unit screens tiles, not pairs.
  size_t cluster_tiles = 0;
  size_t cluster_lanes = 0;
  double gc_force_flops = 0.0;   ///< bonded/restraints/etc — overlaps HTIS
  double gc_update_flops = 0.0;  ///< integration/constraints — post-reduce
  double import_bytes = 0.0;     ///< position data this node receives
  double export_bytes = 0.0;     ///< force data this node sends back
  size_t messages = 0;           ///< point-to-point messages this node sends
};

/// Global (machine-wide) k-space workload for one step; inactive when the
/// step reuses cached reciprocal forces (RESPA).
struct KspaceWork {
  bool active = false;
  size_t grid_points = 0;
  size_t charges = 0;
  size_t stencil_points = 0;  ///< spreading stencil size per charge
  double fft_flops = 0.0;     ///< forward+inverse total
};

struct StepWork {
  std::vector<NodeWork> nodes;
  KspaceWork kspace;
  size_t tempering_decisions = 0;  ///< exchange attempts this step
};

/// Modeled wall-clock phases of one step (seconds).
struct StepBreakdown {
  double multicast = 0.0;
  double pair_phase = 0.0;      ///< HTIS time (max over nodes)
  /// Share of the worst node's pair_phase spent streaming masked-off tile
  /// lanes (cluster kernel only; the padding cost of blocking).  Included
  /// in pair_phase, not added to total.
  double pair_masked = 0.0;
  double gc_force_phase = 0.0;  ///< concurrent GC force work (max over nodes)
  double interaction = 0.0;     ///< max(pair_phase, gc_force_phase)
  double reduce = 0.0;
  double update = 0.0;
  double kspace_spread = 0.0;
  double kspace_fft_compute = 0.0;
  double kspace_fft_comm = 0.0;
  double kspace_convolve = 0.0;
  double kspace_interp = 0.0;
  double tempering = 0.0;
  double sync = 0.0;
  /// Reliability-protocol overhead charged by machine::ReliableTransport:
  /// retransmit timeouts/backoff, CRC nack round trips, reroutes around
  /// down-marked links, and node-hang stalls.  Zero on a healthy machine.
  /// Filled in by the machine force provider after step_time().
  double reliability = 0.0;
  /// Always zero.  Audit walltime is reported by the resilience.audit.
  /// time_ns counter; the field stays because MachineSimulation
  /// checkpoints serialize this struct, and their layout must not move.
  double audit = 0.0;
  double total = 0.0;

  [[nodiscard]] double kspace_total() const {
    return kspace_spread + kspace_fft_compute + kspace_fft_comm +
           kspace_convolve + kspace_interp;
  }
  /// Fraction of the step the HTIS pipelines are busy.
  [[nodiscard]] double htis_utilization() const {
    return total > 0 ? pair_phase / total : 0.0;
  }
  /// Fraction of the step the geometry cores are busy.
  [[nodiscard]] double gc_utilization() const {
    return total > 0
               ? (gc_force_phase + update + kspace_spread + kspace_interp +
                  kspace_convolve + kspace_fft_compute) /
                     total
               : 0.0;
  }
  /// Total network time of the step.  Fixed left-to-right association —
  /// obs::Profile accumulates its per-class totals in the same order, so
  /// the profiler's class sum matches this bit-for-bit (profile_test).
  [[nodiscard]] double network_total() const {
    return multicast + reduce + kspace_fft_comm + sync + reliability;
  }
  /// Fraction of the step spent on the network (non-overlapped).
  [[nodiscard]] double network_fraction() const {
    return total > 0 ? network_total() / total : 0.0;
  }
};

/// Component split of one network phase's modeled time: serialization
/// (bytes over injection/bisection bandwidth), queueing (per-message
/// injection overhead) and contention (hop-latency terms — the part set by
/// topology and traffic crossing, not by this node's own wire rate).
struct NetworkCost {
  double serialization = 0.0;
  double queueing = 0.0;
  double contention = 0.0;
};

/// Per-phase network attribution for one step, filled by
/// TimingModel::step_time on request (profiling only).  Per-phase costs
/// describe the worst node — the one that set the bulk-synchronous phase
/// time; message/byte totals sum over all nodes.  The components are the
/// model's own terms, so serialization + queueing + contention re-sums to
/// the matching StepBreakdown field to within floating-point rounding.
struct NetworkAttribution {
  NetworkCost multicast;
  NetworkCost reduce;
  NetworkCost kspace_fft;
  uint64_t multicast_messages = 0;  ///< point-to-point messages, all nodes
  uint64_t kspace_messages = 0;     ///< FFT transpose messages
  double multicast_bytes = 0.0;     ///< total import volume
  double reduce_bytes = 0.0;        ///< total export volume
  double kspace_bytes = 0.0;        ///< FFT transpose volume
};

class TimingModel {
 public:
  TimingModel(MachineConfig config, GcCosts costs = GcCosts{});

  /// Models one step.  When `attribution` is non-null (attribution
  /// profiling) the per-phase network component split is filled in too;
  /// the returned breakdown is bit-identical either way.
  [[nodiscard]] StepBreakdown step_time(
      const StepWork& work, NetworkAttribution* attribution = nullptr) const;

  [[nodiscard]] const MachineConfig& config() const { return config_; }
  [[nodiscard]] const GcCosts& costs() const { return costs_; }

  /// Marks a node as degraded: its compute phases (pair pipelines, geometry
  /// cores) run `factor` times slower.  factor = 1 restores full speed.
  /// Models a partially failed / thermally throttled node; the step time is
  /// a max over nodes, so one slow node stretches the whole machine.
  void set_node_slowdown(size_t node, double factor);
  [[nodiscard]] double node_slowdown(size_t node) const {
    return node < slowdowns_.size() ? slowdowns_[node] : 1.0;
  }

 private:
  MachineConfig config_;
  GcCosts costs_;
  TorusTopology torus_;
  std::vector<double> slowdowns_;  ///< empty = all nodes at full speed
};

/// Simulated nanoseconds per wall-clock day for a given outer timestep and
/// modeled average step time.
[[nodiscard]] double ns_per_day(double dt_fs, double step_time_s);

}  // namespace antmd::machine
