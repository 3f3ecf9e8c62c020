// The data layout (one AsGraph topology store, the arena prefix trie, the
// flat user index and the snapshot's interned strings) under the
// determinism contract: a map built at any thread count must produce
// byte-identical exports, deterministic metrics and `.itms` snapshot bytes.
// The comparisons go through the exporters and the snapshot writer, so
// string-table order, hash-map iteration and float formatting are all
// covered (DESIGN.md decision #10).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/export.h"
#include "core/scenario.h"
#include "core/traffic_map.h"
#include "obs/metrics.h"
#include "serve/snapshot_writer.h"

namespace itm {
namespace {

core::MapBuildOptions build_options(std::size_t threads) {
  core::MapBuildOptions options;
  options.threads = threads;
  options.probe_rounds = 4;
  options.ecs_map_services = 2;
  options.recommend_links = 40;
  return options;
}

struct Artifacts {
  std::string map_json;
  std::string activity_csv;
  std::string links_csv;
  std::string metrics_json;
  std::string snapshot;
};

// Fresh scenario per build: the workload stage mutates DNS caches, so every
// build must start from identical virgin state.
Artifacts build_artifacts(std::size_t threads) {
  obs::MetricsRegistry registry;
  obs::ScopedMetrics metrics_scope(registry);
  auto scenario = core::Scenario::generate(core::tiny_config(4242));
  core::MapBuilder builder(*scenario);
  const auto map = builder.build(build_options(threads));
  Artifacts out;
  std::ostringstream os;
  core::export_map_json(map, *scenario, os);
  out.map_json = os.str();
  os.str("");
  core::export_activity_csv(map, *scenario, os);
  out.activity_csv = os.str();
  os.str("");
  core::export_recommended_links_csv(map, *scenario, os);
  out.links_csv = os.str();
  os.str("");
  registry.write_json(os, obs::MetricsRegistry::Export::kDeterministicOnly);
  out.metrics_json = os.str();
  os.str("");
  serve::write_snapshot(map, *scenario, os);
  out.snapshot = os.str();
  return out;
}

void expect_identical(const Artifacts& a, const Artifacts& b) {
  EXPECT_EQ(a.map_json, b.map_json);
  EXPECT_EQ(a.activity_csv, b.activity_csv);
  EXPECT_EQ(a.links_csv, b.links_csv);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.snapshot, b.snapshot);
  EXPECT_FALSE(a.map_json.empty());
  EXPECT_FALSE(a.snapshot.empty());
}

TEST(LayoutEquivalence, SoaLayoutIsByteIdenticalAcrossThreadCounts) {
  const auto serial = build_artifacts(1);
  const auto four = build_artifacts(4);
  const auto eight = build_artifacts(8);
  expect_identical(serial, four);
  expect_identical(serial, eight);
}

}  // namespace
}  // namespace itm
