// The observability half of the determinism contract: a full map build must
// produce a byte-identical deterministic metrics export whether it ran with
// threads=1 (the legacy serial path) or threads=4, and the tracer must hold
// a span for every pipeline stage. This is the in-process twin of the
// cli_metrics_determinism ctest (tools/metrics_determinism_test.cmake).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace itm {
namespace {

core::MapBuildOptions tiny_build_options(std::size_t threads) {
  core::MapBuildOptions options;
  options.probe_rounds = 4;
  options.ecs_map_services = 2;
  options.recommend_links = 40;
  options.threads = threads;
  return options;
}

struct BuildObservations {
  std::string metrics_json;
  std::vector<obs::TraceEvent> spans;
  core::MapBuildTimings timings;
};

BuildObservations build_and_observe(std::size_t threads) {
  obs::MetricsRegistry registry;
  obs::Tracer trace;
  obs::ScopedMetrics metrics_scope(registry);
  obs::ScopedTracer trace_scope(trace);
  // Scenario generation happens inside the scope too, so topology metrics
  // land in this registry for both builds equally.
  auto scenario = core::Scenario::generate(core::tiny_config(4242));
  core::MapBuilder builder(*scenario);
  (void)builder.build(tiny_build_options(threads));
  BuildObservations out;
  std::ostringstream os;
  registry.write_json(os, obs::MetricsRegistry::Export::kDeterministicOnly);
  out.metrics_json = os.str();
  out.spans = trace.events();
  out.timings = builder.last_timings();
  return out;
}

TEST(MetricsEquivalence, DeterministicExportIsByteIdenticalAcrossThreads) {
  const auto serial = build_and_observe(1);
  const auto parallel = build_and_observe(4);
  EXPECT_EQ(serial.metrics_json, parallel.metrics_json);
  // Sanity: the export actually contains pipeline metrics, not just braces.
  EXPECT_NE(serial.metrics_json.find("scan.cache_probe.probes_sent"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("dns.queries"), std::string::npos);
  EXPECT_NE(serial.metrics_json.find("topology.ases"), std::string::npos);
}

TEST(MetricsEquivalence, TracerCoversEveryPipelineStage) {
  const auto run = build_and_observe(4);
  for (const char* stage : core::kMapStageNames) {
    const bool present =
        std::any_of(run.spans.begin(), run.spans.end(),
                    [&](const obs::TraceEvent& e) { return e.name == stage; });
    EXPECT_TRUE(present) << "missing stage span " << stage;
  }
  // Stage spans are top-level; sweep spans nest under their stage.
  for (const auto& e : run.spans) {
    if (e.name == "scan.cache_probe.sweep") {
      EXPECT_EQ(e.depth, 1u);
      EXPECT_TRUE(e.sim_at.has_value());
    }
  }
}

TEST(MetricsEquivalence, TimingsViewMatchesTracerTotals) {
  obs::MetricsRegistry registry;
  obs::Tracer trace;
  obs::ScopedMetrics metrics_scope(registry);
  obs::ScopedTracer trace_scope(trace);
  auto scenario = core::Scenario::generate(core::tiny_config(4242));
  core::MapBuilder builder(*scenario);
  (void)builder.build(tiny_build_options(2));
  const auto& t = builder.last_timings();
  EXPECT_DOUBLE_EQ(t.workload_probe_s,
                   trace.total_seconds("map.workload_probe"));
  EXPECT_DOUBLE_EQ(t.tls_scan_s, trace.total_seconds("map.tls_scan"));
  EXPECT_DOUBLE_EQ(t.ecs_map_s, trace.total_seconds("map.ecs_map"));
  EXPECT_DOUBLE_EQ(t.routing_s, trace.total_seconds("map.routing"));
  EXPECT_DOUBLE_EQ(t.inference_s, trace.total_seconds("map.inference"));
  EXPECT_GT(t.total_s(), 0.0);
}

}  // namespace
}  // namespace itm
