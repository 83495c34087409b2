// Shared types of the antmd wall-clock benchmark (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< wall time the timed windows take turns for
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  /// Cache of equilibrated base boxes (keyed by the caller, e.g. per
  /// source tree); created if missing.
  std::string cache_dir = ".bench_build/perfbench-cache";
  /// Scratch for checkpoints and the trace file; created if missing.
  std::string out_dir = ".bench_build/perfbench-out";
  /// Self-test sizes: every metric is produced, on systems small enough
  /// for a few seconds per workload.
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One benchmark run's outcome.  `failed` counts attempted windows, fleet
/// tenants or output checks that failed; any failure makes `correct` false.
struct Result {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable gate/check verdicts printed before the JSON line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  /// The named metric's value (0 when absent).
  [[nodiscard]] double value(const std::string& name) const;
  /// Records one attempted unit of work; a failure adds `why` to notes.
  void attempt(bool ok, const std::string& what, const std::string& why = "");
};

/// Physics sanity gate over one timed window: temperature within ±10% of
/// the setpoint at every sample, finite energies, and constraints held to
/// the solver tolerance.
class SanityGate {
 public:
  SanityGate(double setpoint_k, double constraint_tolerance)
      : setpoint_k_(setpoint_k), constraint_tolerance_(constraint_tolerance) {}

  void sample(uint64_t step, double temperature_k, double potential,
              double kinetic, double max_violation);

  [[nodiscard]] bool ok() const { return reason_.empty(); }
  [[nodiscard]] const std::string& reason() const { return reason_; }
  [[nodiscard]] double t_min() const { return t_min_; }
  [[nodiscard]] double t_max() const { return t_max_; }

 private:
  double setpoint_k_;
  double constraint_tolerance_;
  double t_min_ = 1e300;
  double t_max_ = -1e300;
  std::string reason_;  ///< first violation; empty while passing
};

// --- statistics --------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// The tail of a latency sample: the nearest-rank value at `percentile`,
/// with how many samples lie beyond it.  Each workload fixes its percentile
/// so that at least ten samples lie beyond it at its usual sample count;
/// being fixed, the figure means the same thing on every commit.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v, double percentile);

// --- process / host ------------------------------------------------------------

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Host fingerprint lines (nproc, spin-probe effective cores, dispatched
/// kernel ISA, build type).
[[nodiscard]] std::vector<std::pair<std::string, std::string>> host_fingerprint();

/// CPU time of the whole process so far, in seconds.
[[nodiscard]] double process_cpu_s();

/// Seconds elapsed since `start_ns` (perfbench::now_ns()).
[[nodiscard]] double seconds_since(int64_t start_ns);

/// Stable 64-bit mix for deriving per-purpose seeds from the run seed.
[[nodiscard]] uint64_t mix_seed(uint64_t seed, uint64_t salt);

// --- workloads -----------------------------------------------------------------

/// water_gse and lj_cutoff.
Result run_md_workload(const Options& opt);
/// fleet_small.
Result run_fleet_workload(const Options& opt);
/// Runs the canonical water from its unequilibrated lattice start for 20
/// steps under the sanity gate; returns true when the gate rejects it.
bool gate_rejects_lattice_start(std::vector<std::string>& notes);

}  // namespace perfbench
