#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace antmd::obs {

namespace detail {

size_t thread_index() {
  static std::atomic<size_t> next{0};
  thread_local size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

namespace {

uint64_t double_bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Relaxed atomic double accumulation via CAS on the bit pattern.
void atomic_add_double(std::atomic<uint64_t>& bits, double delta) {
  uint64_t observed = bits.load(std::memory_order_relaxed);
  uint64_t desired;
  do {
    desired = double_bits(bits_double(observed) + delta);
  } while (!bits.compare_exchange_weak(observed, desired,
                                       std::memory_order_relaxed));
}

/// Shortest round-trippable double for JSON/text output.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Escapes a metric name for embedding in a JSON string literal.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace
}  // namespace detail

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  if (edges_.empty()) edges_.push_back(0.0);
  std::sort(edges_.begin(), edges_.end());
  for (Shard& s : shards_) {
    s.counts = std::make_unique<std::atomic<uint64_t>[]>(edges_.size() + 1);
  }
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  // First edge >= v; v beyond every edge lands in the overflow bucket.
  size_t bucket = static_cast<size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), v) - edges_.begin());
  Shard& shard = shards_[detail::shard_index()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add_double(shard.sum_bits, v);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(edges_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (size_t b = 0; b < out.size(); ++b) {
      out[b] += s.counts[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (uint64_t c : bucket_counts()) total += c;
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const Shard& s : shards_) {
    total += detail::bits_double(s.sum_bits.load(std::memory_order_relaxed));
  }
  return total;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    for (size_t b = 0; b < edges_.size() + 1; ++b) {
      s.counts[b].store(0, std::memory_order_relaxed);
    }
    s.sum_bits.store(detail::double_bits(0.0), std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> edges) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(edges)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue hv;
    hv.edges = h->edges();
    hv.buckets = h->bucket_counts();
    for (uint64_t b : hv.buckets) hv.count += b;
    hv.sum = h->sum();
    snap.histograms[name] = std::move(hv);
  }
  return snap;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + detail::json_escape(name) +
           "\": " + std::to_string(value);
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + detail::json_escape(name) +
           "\": " + detail::format_double(value);
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + detail::json_escape(name) + "\": {\"edges\": [";
    for (size_t i = 0; i < h.edges.size(); ++i) {
      if (i) out += ", ";
      out += detail::format_double(h.edges[i]);
    }
    out += "], \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + detail::format_double(h.sum) + "}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::to_text() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name + " " + detail::format_double(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    out += name + ".count " + std::to_string(h.count) + "\n";
    out += name + ".sum " + detail::format_double(h.sum) + "\n";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      std::string edge = i < h.edges.size()
                             ? "le_" + detail::format_double(h.edges[i])
                             : "overflow";
      out += name + ".bucket." + edge + " " + std::to_string(h.buckets[i]) +
             "\n";
    }
  }
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  // Metric names use dots (subsystem.phase.metric); Prometheus only allows
  // [a-zA-Z0-9_:].  Map everything else to '_' and prefix the namespace.
  auto sanitize = [](const std::string& name) {
    std::string out = "antmd_";
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      out.push_back(ok ? c : '_');
    }
    return out;
  };
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + detail::format_double(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::string n = sanitize(name);
    out += "# TYPE " + n + " histogram\n";
    // Prometheus buckets are cumulative; ours are per-bin.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.edges.size(); ++i) {
      cumulative += i < h.buckets.size() ? h.buckets[i] : 0;
      out += n + "_bucket{le=\"" + detail::format_double(h.edges[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum " + detail::format_double(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::vector<PhaseShare> phase_breakdown(const MetricsSnapshot& snapshot) {
  constexpr std::string_view kSuffix = ".time_ns";
  std::vector<PhaseShare> phases;
  double total = 0.0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    PhaseShare p;
    p.name = name.substr(0, name.size() - kSuffix.size());
    p.seconds = static_cast<double>(value) * 1e-9;
    total += p.seconds;
    phases.push_back(std::move(p));
  }
  if (total > 0) {
    for (PhaseShare& p : phases) p.fraction = p.seconds / total;
  }
  std::sort(phases.begin(), phases.end(),
            [](const PhaseShare& a, const PhaseShare& b) {
              return a.seconds > b.seconds;
            });
  return phases;
}

void register_standard_metrics(MetricsRegistry& registry) {
  // md: the integrator's phases and cadence (both engines).
  for (const char* name :
       {"md.bonded.time_ns", "md.nonbonded.time_ns", "md.kspace.time_ns",
        "md.constraints.time_ns", "md.integrate.time_ns",
        "md.neighbor.time_ns", "md.step.count", "md.neighbor.rebuild.count"}) {
    registry.counter(name);
  }
  // runtime: the machine's force evaluation.
  for (const char* name :
       {"runtime.evaluate.time_ns", "runtime.node_eval.time_ns",
        "runtime.node_eval.count",
        "runtime.redistribute.time_ns", "runtime.redistribute.count",
        "runtime.remap.count", "runtime.kspace.time_ns"}) {
    registry.counter(name);
  }
  registry.gauge("runtime.alive_nodes");
  // machine: the modeled hardware's counters.
  for (const char* name :
       {"machine.model.step_seconds", "machine.model.total_seconds",
        "machine.model.ns_per_day", "machine.model.htis_utilization",
        "machine.model.gc_utilization", "machine.model.network_fraction",
        "machine.torus.mean_hops", "machine.torus.diameter",
        "machine.contention.multicast_seconds",
        "machine.contention.max_link_bytes"}) {
    registry.gauge(name);
  }
  // sampling: enhanced-sampling drivers.
  for (const char* name :
       {"sampling.tempering.attempt.count", "sampling.tempering.accept.count",
        "sampling.exchange.attempt.count", "sampling.exchange.accept.count",
        "sampling.metadynamics.hill.count", "sampling.fep.window.count",
        "sampling.fep.sample.count"}) {
    registry.counter(name);
  }
  registry.gauge("sampling.fep.windows_done");
  // resilience + fault injection.
  for (const char* name :
       {"util.fault.io_write_fail.count", "util.fault.io_short_write.count",
        "util.fault.nan_force.count", "util.fault.node_fail.count"}) {
    registry.counter(name);
  }
  registry.gauge("resilience.supervisor.snapshot_bytes");
  // fleet: the multi-run scheduler.
  for (const char* name :
       {"fleet.submit.count", "fleet.reject.count", "fleet.complete.count",
        "fleet.quarantine.count", "fleet.evict.count",
        "fleet.rehydrate.count", "fleet.slice.count"}) {
    registry.counter(name);
  }
  registry.gauge("fleet.active_runs");
  registry.gauge("fleet.queued_runs");
  registry.gauge("fleet.resident_bytes");
  // profile: the attribution profiler's per-class network split (populated
  // only when obs::set_profiling(true); see obs/profile.hpp).  Class names
  // follow obs::message_class_name.
  registry.gauge("profile.network.total_seconds");
  for (const char* cls :
       {"position_multicast", "force_reduction", "kspace_fft", "barrier_sync",
        "reliability"}) {
    const std::string base = std::string("profile.network.") + cls;
    registry.gauge(base + ".seconds");
    registry.gauge(base + ".serialization_seconds");
    registry.gauge(base + ".queueing_seconds");
    registry.gauge(base + ".contention_seconds");
  }
  // Per-directed-link bytes routed in one multicast step (contention model).
  registry.histogram("machine.link.step_bytes",
                     {1e2, 1e3, 1e4, 1e5, 1e6, 1e7});
}

bool write_metrics_file(const std::string& path,
                        const MetricsSnapshot& snapshot) {
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  return write_text_file(path, json ? snapshot.to_json() : snapshot.to_text());
}

bool write_text_file(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  int rc = std::fclose(f);
  return written == body.size() && rc == 0;
}

}  // namespace antmd::obs
