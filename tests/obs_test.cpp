// Telemetry subsystem contract: sharded counters aggregate exactly under
// the deterministic execution layer, histogram bucketing honours its
// inclusive upper edges, disabled telemetry is a no-op, and the trace
// session renders well-formed Chrome trace_event JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/execution.hpp"

namespace antmd {
namespace {

TEST(Metrics, CounterAggregatesExactlyAcrossWorkerThreads) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& c = reg.counter("test.parallel.count");

  constexpr size_t kTasks = 64;
  constexpr uint64_t kPerTask = 10000;
  auto exec = ExecutionContext::create({8});
  exec->parallel_for(kTasks, [&](size_t) {
    for (uint64_t k = 0; k < kPerTask; ++k) c.add();
  });
  EXPECT_EQ(c.value(), kTasks * kPerTask);

  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, DisabledTelemetryDropsUpdates) {
  obs::ScopedTelemetry off(false);
  obs::MetricsRegistry reg;
  auto& c = reg.counter("test.disabled.count");
  auto& h = reg.histogram("test.disabled.hist", {1.0, 2.0});
  c.add(17);
  h.observe(1.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.snapshot().histograms.at("test.disabled.hist").count, 0u);
}

TEST(Metrics, RegistryReturnsStableReferencesByName) {
  obs::MetricsRegistry reg;
  auto& a = reg.counter("test.same.count");
  auto& b = reg.counter("test.same.count");
  EXPECT_EQ(&a, &b);
  auto& g1 = reg.gauge("test.same.gauge");
  auto& g2 = reg.gauge("test.same.gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(Metrics, GaugeRoundTripsDoubles) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& g = reg.gauge("test.gauge");
  for (double v : {0.0, -1.5, 3.14159265358979, 1e300, -2.5e-308}) {
    g.set(v);
    EXPECT_EQ(g.value(), v);
  }
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("test.hist", {1.0, 10.0, 100.0});

  h.observe(0.5);    // <= 1      -> bucket 0
  h.observe(1.0);    // == edge 0 -> bucket 0 (inclusive)
  h.observe(1.0001); // (1, 10]   -> bucket 1
  h.observe(10.0);   // == edge 1 -> bucket 1
  h.observe(99.9);   // (10, 100] -> bucket 2
  h.observe(100.5);  // > last    -> overflow bucket 3

  auto snap = reg.snapshot();
  const auto& v = snap.histograms.at("test.hist");
  ASSERT_EQ(v.edges.size(), 3u);
  ASSERT_EQ(v.buckets.size(), 4u);
  EXPECT_EQ(v.buckets[0], 2u);
  EXPECT_EQ(v.buckets[1], 2u);
  EXPECT_EQ(v.buckets[2], 1u);
  EXPECT_EQ(v.buckets[3], 1u);
  EXPECT_EQ(v.count, 6u);
  EXPECT_NEAR(v.sum, 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.5, 1e-9);
}

TEST(Metrics, HistogramCountsSurviveConcurrentObserves) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("test.hist.par", {10.0, 20.0});
  auto exec = ExecutionContext::create({8});
  constexpr size_t kTasks = 32;
  constexpr int kPerTask = 500;
  exec->parallel_for(kTasks, [&](size_t t) {
    for (int k = 0; k < kPerTask; ++k) {
      h.observe(static_cast<double>(t % 3) * 10.0 + 5.0);  // 5, 15, 25
    }
  });
  auto v = reg.snapshot().histograms.at("test.hist.par");
  EXPECT_EQ(v.count, kTasks * static_cast<uint64_t>(kPerTask));
  EXPECT_EQ(v.buckets[0] + v.buckets[1] + v.buckets[2], v.count);
}

TEST(Metrics, SnapshotAndPhaseBreakdown) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  reg.counter("test.alpha.time_ns").add(3'000'000'000ull);  // 3 s
  reg.counter("test.beta.time_ns").add(1'000'000'000ull);   // 1 s
  reg.counter("test.other.count").add(5);  // not a phase

  auto shares = obs::phase_breakdown(reg.snapshot());
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0].name, "test.alpha");   // descending by time
  EXPECT_NEAR(shares[0].seconds, 3.0, 1e-12);
  EXPECT_NEAR(shares[0].fraction, 0.75, 1e-12);
  EXPECT_EQ(shares[1].name, "test.beta");
  EXPECT_NEAR(shares[1].fraction, 0.25, 1e-12);
}

TEST(Metrics, StandardSetCoversEverySubsystem) {
  obs::MetricsRegistry reg;
  obs::register_standard_metrics(reg);
  auto snap = reg.snapshot();
  for (const char* name :
       {"md.step.count", "runtime.redistribute.count",
        "sampling.exchange.attempt.count", "util.fault.node_fail.count"}) {
    EXPECT_TRUE(snap.counters.count(name)) << name;
  }
  for (const char* name :
       {"machine.model.ns_per_day", "machine.torus.mean_hops",
        "runtime.alive_nodes", "resilience.supervisor.snapshot_bytes"}) {
    EXPECT_TRUE(snap.gauges.count(name)) << name;
  }
}

TEST(Metrics, JsonDumpIsBalancedAndNamesMetrics) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  reg.counter("test.json.count").add(7);
  reg.gauge("test.json.gauge").set(2.5);
  reg.histogram("test.json.hist", {1.0}).observe(0.5);
  std::string json = reg.snapshot().to_json();

  long depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"test.json.count\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
}

TEST(Trace, ScopedTimerAccumulatesIntoCounter) {
  obs::ScopedTelemetry on(true);
  obs::MetricsRegistry reg;
  auto& ns = reg.counter("test.timer.time_ns");
  {
    obs::ScopedTimer timer(ns);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  EXPECT_GT(ns.value(), 0u);
}

TEST(Trace, SessionRendersWellFormedChromeJson) {
  obs::ScopedTelemetry on(true);
  auto& session = obs::TraceSession::global();
  session.start("");  // buffer only, no file
  session.set_track_name(1042, "node 42");
  { obs::TracePhase phase("test.span", "test"); }
  {
    obs::TracePhase phase("test.node_span", "test", nullptr,
                          /*track=*/1042, "node", 42);
  }
  session.stop();
  ASSERT_GE(session.event_count(), 2u);

  std::string json = session.to_json();
  long depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"test.node_span\""), std::string::npos);
  EXPECT_NE(json.find("node 42"), std::string::npos);  // metadata track name
  EXPECT_NE(json.find("\"X\""), std::string::npos);    // complete events
  EXPECT_NE(json.find("\"M\""), std::string::npos);    // metadata events
}

TEST(Trace, NoEventsRecordedWhenSessionStopped) {
  obs::ScopedTelemetry on(true);
  auto& session = obs::TraceSession::global();
  session.stop();
  size_t before = session.event_count();
  { obs::TracePhase phase("test.ignored", "test"); }
  EXPECT_EQ(session.event_count(), before);
}

}  // namespace
}  // namespace antmd
