// MetricsRegistry: counter/gauge semantics, the determinism
// contract (merging updates from executor workers in any order yields the
// serial value), exporter golden output, and the current-registry scoping.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "net/executor.h"

namespace itm::obs {
namespace {

TEST(Counter, AddsAndReads) {
  MetricsRegistry reg;
  Counter& c = reg.counter("events");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.counter_value("events"), 42u);
}

TEST(Gauge, SetAndMaximize) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.maximize(3);  // lower value must not win
  EXPECT_EQ(g.value(), 7);
  g.maximize(11);
  EXPECT_EQ(g.value(), 11);
  EXPECT_EQ(reg.gauge_value("depth"), 11);
}

TEST(MetricsRegistry, FindOrCreateReturnsSameMetric) {
  MetricsRegistry reg;
  reg.counter("x").add(1);
  reg.counter("x").add(2);
  EXPECT_EQ(reg.counter_value("x"), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), std::logic_error);
  EXPECT_THROW(reg.quantile("name"), std::logic_error);
}

TEST(MetricsRegistry, AccessorsAreTypeChecked) {
  MetricsRegistry reg;
  reg.gauge("g").set(5);
  EXPECT_EQ(reg.counter_value("g"), std::nullopt);
  EXPECT_EQ(reg.counter_value("absent"), std::nullopt);
  EXPECT_EQ(reg.gauge_value("g"), 5);
}

TEST(MetricsRegistry, ClearDropsEverything) {
  MetricsRegistry reg;
  reg.counter("a").add(1);
  reg.gauge("b").set(2);
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.counter_value("a"), std::nullopt);
}

// The core contract: accumulating the same set of updates from worker
// threads — in whatever order the scheduler picks — must export
// byte-identically to the serial accumulation. Run the identical update set
// through executors with 1 and 4 threads and diff the JSON.
TEST(MetricsRegistry, MergeIsThreadCountIndependent) {
  const auto run = [](std::size_t threads) {
    MetricsRegistry reg;
    net::Executor executor(threads);
    executor.parallel_for(1000, [&reg](const net::Executor::Shard& shard) {
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        reg.counter("items").add(i % 7);
        reg.gauge("max_index").maximize(static_cast<std::int64_t>(i));
      }
    });
    std::ostringstream os;
    reg.write_json(os, MetricsRegistry::Export::kAll);
    return os.str();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Export, JsonGolden) {
  MetricsRegistry reg;
  reg.counter("zebra").add(3);
  reg.counter("alpha").add(1);
  reg.gauge("level").set(-2);
  std::ostringstream os;
  reg.write_json(os);
  // Keys sorted by name within each kind.
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"metrics\": {\n"
            "    \"deterministic\": {\n"
            "      \"counters\": {\n"
            "        \"alpha\": 1,\n"
            "        \"zebra\": 3\n"
            "      },\n"
            "      \"gauges\": {\n"
            "        \"level\": -2\n"
            "      }\n"
            "    }\n"
            "  }\n"
            "}\n");
}

TEST(Export, DeterministicOnlyExcludesWallClock) {
  MetricsRegistry reg;
  reg.counter("events").add(9);
  reg.counter("shard_micros", Determinism::kWallClock).add(12345);
  reg.gauge("hwm", Determinism::kWallClock).set(8);

  std::ostringstream det;
  reg.write_json(det, MetricsRegistry::Export::kDeterministicOnly);
  EXPECT_NE(det.str().find("\"events\": 9"), std::string::npos);
  EXPECT_EQ(det.str().find("shard_micros"), std::string::npos);
  EXPECT_EQ(det.str().find("wall_clock"), std::string::npos);

  std::ostringstream all;
  reg.write_json(all, MetricsRegistry::Export::kAll);
  EXPECT_NE(all.str().find("\"wall_clock\""), std::string::npos);
  EXPECT_NE(all.str().find("\"shard_micros\": 12345"), std::string::npos);
  EXPECT_NE(all.str().find("\"hwm\": 8"), std::string::npos);
}

TEST(Quantile, DeterministicRegistrationThrows) {
  // Quantile histograms summarize wall-clock samples; letting one into the
  // deterministic half would break the cross-thread-count byte diff.
  MetricsRegistry reg;
  EXPECT_THROW(reg.quantile("latency", Determinism::kDeterministic),
               std::logic_error);
}

TEST(Quantile, ExportsOnlyUnderWallClockSection) {
  MetricsRegistry reg;
  reg.counter("events").add(1);
  QuantileHistogram& q = reg.quantile("serve.query_latency_us");
  q.observe(10);
  q.observe(1000);

  std::ostringstream det;
  reg.write_json(det, MetricsRegistry::Export::kDeterministicOnly);
  EXPECT_EQ(det.str().find("quantiles"), std::string::npos);
  EXPECT_EQ(det.str().find("serve.query_latency_us"), std::string::npos);

  std::ostringstream all;
  reg.write_json(all, MetricsRegistry::Export::kAll);
  const std::string json = all.str();
  const std::size_t wall = json.find("\"wall_clock\"");
  ASSERT_NE(wall, std::string::npos);
  const std::size_t quantiles = json.find("\"quantiles\"");
  ASSERT_NE(quantiles, std::string::npos);
  EXPECT_GT(quantiles, wall);  // nested inside the wall_clock section
  for (const char* key : {"\"p50\"", "\"p90\"", "\"p99\"", "\"p999\"",
                          "\"count\": 2", "\"sum\": 1010", "\"max\": 1000"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(Quantile, RegistryHandleAccumulates) {
  MetricsRegistry reg;
  reg.quantile("q").observe(4);
  reg.quantile("q").observe(6);
  EXPECT_EQ(reg.quantile("q").count(), 2u);
  EXPECT_EQ(reg.quantile("q").sum(), 10u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ScopedMetrics, InstallsAndRestoresCurrentRegistry) {
  MetricsRegistry& global = metrics();
  MetricsRegistry local;
  {
    ScopedMetrics scope(local);
    EXPECT_EQ(&metrics(), &local);
    count("scoped.hits");
    MetricsRegistry inner;
    {
      ScopedMetrics nested(inner);
      EXPECT_EQ(&metrics(), &inner);
      count("scoped.hits");
    }
    EXPECT_EQ(&metrics(), &local);
  }
  EXPECT_EQ(&metrics(), &global);
  EXPECT_EQ(local.counter_value("scoped.hits"), 1u);
}

}  // namespace
}  // namespace itm::obs
