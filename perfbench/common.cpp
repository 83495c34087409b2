#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ff/nonbonded_simd.hpp"
#include "spans.hpp"

namespace perfbench {

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

double Result::value(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void Result::attempt(bool ok, const std::string& what, const std::string& why) {
  ++attempted;
  if (ok) {
    notes.push_back("PASS " + what);
  } else {
    ++failed;
    notes.push_back("FAIL " + what + ": " + why);
  }
}

void SanityGate::sample(uint64_t step, double temperature_k, double potential,
                        double kinetic, double max_violation) {
  t_min_ = std::min(t_min_, temperature_k);
  t_max_ = std::max(t_max_, temperature_k);
  if (!reason_.empty()) return;
  char buf[160];
  if (!std::isfinite(potential) || !std::isfinite(kinetic) ||
      !std::isfinite(temperature_k)) {
    std::snprintf(buf, sizeof(buf), "non-finite energy at step %llu",
                  static_cast<unsigned long long>(step));
    reason_ = buf;
  } else if (std::abs(temperature_k - setpoint_k_) > 0.10 * setpoint_k_) {
    std::snprintf(buf, sizeof(buf),
                  "T = %.1f K at step %llu leaves %.0f K +/- 10%%",
                  temperature_k, static_cast<unsigned long long>(step),
                  setpoint_k_);
    reason_ = buf;
  } else if (!(max_violation <= constraint_tolerance_)) {
    std::snprintf(buf, sizeof(buf),
                  "constraint violation %.3g at step %llu exceeds %.1g",
                  max_violation, static_cast<unsigned long long>(step),
                  constraint_tolerance_);
    reason_ = buf;
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Tail tail(std::vector<double> v, double percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const auto rank = static_cast<size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n)));
  const size_t idx = std::clamp<size_t>(rank, 1, n) - 1;
  t.value = v[idx];
  t.beyond = n - 1 - idx;
  return t;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over seed ^ salt-spread.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Spin work for the effective-core probe; the result is kept observable
/// so the loop cannot be folded away.
uint64_t spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Throughput of `lanes` concurrent spinners relative to one: about the
/// number of cores the host actually gives this process (median of three
/// probes, since a shared host's share moves from moment to moment).
double effective_cores(size_t lanes, double& serial_ms) {
  constexpr uint64_t kWork = 50'000'000;
  std::atomic<uint64_t> sink{0};
  std::vector<double> ratios, serials;
  for (int trial = 0; trial < 3; ++trial) {
    int64_t t0 = now_ns();
    sink += spin(kWork);
    const double serial = seconds_since(t0);
    serials.push_back(serial * 1e3);
    t0 = now_ns();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < lanes; ++i) {
      threads.emplace_back([&sink] { sink += spin(kWork); });
    }
    for (std::thread& t : threads) t.join();
    ratios.push_back(static_cast<double>(lanes) * serial / seconds_since(t0));
  }
  serial_ms = median(serials);
  return median(ratios);
}

}  // namespace

std::vector<std::pair<std::string, std::string>> host_fingerprint() {
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  double serial_ms = 0.0;
  char cores[32], spin[32];
  std::snprintf(cores, sizeof(cores), "%.2f", effective_cores(nproc, serial_ms));
  std::snprintf(spin, sizeof(spin), "%.1f", serial_ms);
  return {{"nproc", std::to_string(nproc)},
          {"effective_cores", cores},
          {"spin_probe_ms", spin},
          {"kernel_isa", antmd::ff::to_string(antmd::ff::active_kernel_isa())},
          {"build_type", PERFBENCH_BUILD_TYPE}};
}

}  // namespace perfbench
