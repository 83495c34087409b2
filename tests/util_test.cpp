// Unit tests for src/util: errors, CLI parsing, tables, task graph,
// execution context.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/execution.hpp"
#include "util/table.hpp"
#include "util/task_graph.hpp"

namespace antmd {
namespace {

TEST(Error, RequireThrowsWithContext) {
  try {
    ANTMD_REQUIRE(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(ANTMD_REQUIRE(true, "never shown"));
}

TEST(Cli, ParsesEqualsForm) {
  CliParser cli("prog", "test");
  cli.add_flag("steps", "n steps", 100);
  cli.add_flag("dt", "timestep", 2.5);
  const char* argv[] = {"prog", "--steps=42", "--dt=1.0"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("steps"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("dt"), 1.0);
}

TEST(Cli, ParsesSpaceForm) {
  CliParser cli("prog", "test");
  cli.add_flag("name", "a name", std::string("default"));
  const char* argv[] = {"prog", "--name", "water"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_string("name"), "water");
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  CliParser cli("prog", "test");
  cli.add_flag("verbose", "chatty", false);
  cli.add_flag("steps", "n", 7);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_FALSE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_int("steps"), 7);
}

TEST(Cli, BareBooleanFlagMeansTrue) {
  CliParser cli("prog", "test");
  cli.add_flag("verbose", "chatty", false);
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(cli.parse(2, argv), ConfigError);
}

TEST(Cli, MalformedNumberThrows) {
  CliParser cli("prog", "test");
  cli.add_flag("steps", "n", 1);
  const char* argv[] = {"prog", "--steps=abc"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW(static_cast<void>(cli.get_int("steps")), ConfigError);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Table, RendersAlignedColumns) {
  Table t({"system", "atoms", "ns/day"});
  t.add_row({"water-11k", "11250", Table::num(123.456, 1)});
  t.add_row({"dhfr-like", "23558", Table::num(87.1, 1)});
  std::string out = t.render();
  EXPECT_NE(out.find("water-11k"), std::string::npos);
  EXPECT_NE(out.find("123.5"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumAndSciFormat) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::sci(12345.0, 2), "1.23e+04");
}

TEST(TaskRuntime, RunsAllIndices) {
  auto rt = util::TaskRuntime::create(2);
  std::vector<std::atomic<int>> hits(100);
  rt->parallel_for(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskRuntime, PropagatesExceptions) {
  auto rt = util::TaskRuntime::create(2);
  EXPECT_THROW(rt->parallel_for(
                   10,
                   [](size_t i) {
                     if (i == 5) throw Error("boom");
                   }),
               Error);
}

TEST(TaskRuntime, ZeroCountIsNoop) {
  auto rt = util::TaskRuntime::create(1);
  EXPECT_NO_THROW(rt->parallel_for(0, [](size_t) { FAIL(); }));
}

TEST(TaskRuntime, ReusableAcrossCalls) {
  auto rt = util::TaskRuntime::create(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    rt->parallel_for(64, [&](size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(TaskRuntime, MoreLanesThanItems) {
  auto rt = util::TaskRuntime::create(8);
  std::vector<std::atomic<int>> hits(3);
  rt->parallel_for(3, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskRuntime, UsableAfterException) {
  auto rt = util::TaskRuntime::create(2);
  EXPECT_THROW(
      rt->parallel_for(4, [](size_t) { throw Error("first call"); }),
      Error);
  std::atomic<int> count{0};
  rt->parallel_for(16, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(TaskRuntime, NestedParallelForRunsInlineInOrder) {
  auto rt = util::TaskRuntime::create(4);
  std::array<std::vector<size_t>, 3> inner_order;
  rt->parallel_for(3, [&](size_t outer) {
    // Re-entering the same runtime from a task body must not deadlock; it
    // runs serially in index order on the calling lane.
    rt->parallel_for(5, [&](size_t inner) {
      EXPECT_EQ(util::TaskRuntime::current_lane(), 0u);
      inner_order[outer].push_back(inner);
    });
  });
  for (const auto& order : inner_order) {
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(TaskGraph, RespectsDependencies) {
  auto rt = util::TaskRuntime::create(4);
  for (int round = 0; round < 20; ++round) {
    util::TaskGraph g(rt);
    std::atomic<int> stage{0};
    auto a = g.add("a", [&] { stage.store(1); });
    auto b = g.add_parallel(
        "b", [] { return size_t{32}; },
        [&](size_t) { EXPECT_GE(stage.load(), 1); }, {a});
    g.add_reduction("c", [&] { stage.store(2); }, {b});
    g.run();
    EXPECT_EQ(stage.load(), 2);
  }
}

TEST(TaskGraph, IndependentTasksAllRun) {
  auto rt = util::TaskRuntime::create(4);
  util::TaskGraph g(rt);
  std::vector<std::atomic<int>> hits(16);
  std::vector<util::TaskId> roots;
  for (size_t t = 0; t < hits.size(); ++t) {
    roots.push_back(g.add("root", [&hits, t] { hits[t].fetch_add(1); }));
  }
  g.add_reduction(
      "join",
      [&] {
        for (auto& h : hits) EXPECT_EQ(h.load(), 1);
      },
      roots);
  g.run();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskGraph, CountProviderResolvedAtReadyTime) {
  auto rt = util::TaskRuntime::create(2);
  util::TaskGraph g(rt);
  size_t count = 0;  // written by an upstream task, read by the provider
  size_t next = 37;
  std::atomic<size_t> ran{0};
  auto resize = g.add("resize", [&] { count = next; });
  g.add_parallel(
      "body", [&count] { return count; },
      [&](size_t) { ran.fetch_add(1); }, {resize});
  g.run();
  EXPECT_EQ(ran.load(), 37u);
  // Graphs are reusable, counts re-resolve each run, and a zero-grain
  // parallel task completes vacuously without blocking downstream tasks.
  next = 0;
  ran.store(0);
  std::atomic<int> after{0};
  g.add("after", [&] { after.fetch_add(1); });
  g.run();
  EXPECT_EQ(ran.load(), 0u);
  EXPECT_EQ(after.load(), 1);
}

TEST(TaskGraph, SerialFallbackRunsInInsertionOrder) {
  util::TaskGraph g(nullptr);  // no runtime: serial
  std::vector<int> order;
  auto a = g.add("a", [&] { order.push_back(0); });
  g.add_parallel(
      "b", [] { return size_t{3}; },
      [&](size_t i) { order.push_back(1 + static_cast<int>(i)); }, {a});
  g.add("c", [&] { order.push_back(4); });
  g.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskGraph, ExceptionCancelsAndRethrows) {
  auto rt = util::TaskRuntime::create(2);
  util::TaskGraph g(rt);
  std::atomic<int> downstream{0};
  auto boom = g.add("boom", [] { throw Error("task failed"); });
  g.add_reduction("after", [&] { downstream.fetch_add(1); }, {boom});
  EXPECT_THROW(g.run(), Error);
  EXPECT_EQ(downstream.load(), 0);
  // Scheduling state resets cleanly: a second run reproduces the result.
  EXPECT_THROW(g.run(), Error);
}

TEST(PlanChunks, MatchesBounds) {
  auto plan = util::plan_chunks(1000, 256, 16);
  EXPECT_EQ(plan.items, 1000u);
  EXPECT_EQ(plan.chunks, 4u);
  EXPECT_EQ(plan.begin(0), 0u);
  EXPECT_EQ(plan.end(plan.chunks - 1), 1000u);
  size_t covered = 0;
  for (size_t c = 0; c < plan.chunks; ++c) {
    EXPECT_GE(plan.end(c), plan.begin(c));
    covered += plan.end(c) - plan.begin(c);
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(PlanChunks, CapsAtMaxChunks) {
  auto plan = util::plan_chunks(100000, 256, 16);
  EXPECT_EQ(plan.chunks, 16u);
  EXPECT_EQ(plan.end(15), 100000u);
}

TEST(PlanChunks, SmallInputsGetOneChunk) {
  auto plan = util::plan_chunks(10, 256, 16);
  EXPECT_EQ(plan.chunks, 1u);
  EXPECT_EQ(plan.begin(0), 0u);
  EXPECT_EQ(plan.end(0), 10u);
  auto empty = util::plan_chunks(0, 256, 16);
  EXPECT_EQ(empty.chunks, 0u);
}

TEST(TaskRuntimeConfig, SerialByDefault) {
  auto rt = util::TaskRuntime::create(ExecutionConfig{});
  ASSERT_NE(rt, nullptr);
  EXPECT_FALSE(rt->parallel());
  EXPECT_EQ(rt->lanes(), 1u);
}

TEST(TaskRuntimeConfig, SerialRunsInIndexOrder) {
  auto rt = util::TaskRuntime::create(ExecutionConfig{1});
  std::vector<size_t> order;
  rt->parallel_for(10, [&](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(TaskRuntimeConfig, ParallelCoversAllIndices) {
  auto rt = util::TaskRuntime::create(ExecutionConfig{4});
  EXPECT_TRUE(rt->parallel());
  EXPECT_EQ(rt->lanes(), 4u);
  std::vector<std::atomic<int>> hits(257);
  rt->parallel_for(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskRuntimeConfig, AutoThreadsPicksAtLeastOne) {
  auto rt = util::TaskRuntime::create(ExecutionConfig{0});
  EXPECT_GE(rt->lanes(), 1u);
  std::atomic<int> count{0};
  rt->parallel_for(8, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

// The fleet's shared pool is handed out whenever the config asks for more
// than one lane; a 1-lane config gets its own worker-free pool instead.
TEST(TaskRuntimeConfig, SharedPoolServesParallelConfigsOnly) {
  auto pool = util::TaskRuntime::create(4);
  auto shared = util::TaskRuntime::create(ExecutionConfig{4, pool});
  EXPECT_EQ(shared, pool);
  auto serial = util::TaskRuntime::create(ExecutionConfig{1, pool});
  EXPECT_NE(serial, pool);
  EXPECT_EQ(serial->lanes(), 1u);
}

}  // namespace
}  // namespace antmd
