// Scale-name resolution: the world and build options `itm map|outage|
// snapshot --scale S` run with. Only configs are compared; no world is
// generated.
#include "core/scale.h"

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "core/traffic_map.h"

namespace itm::core {
namespace {

void expect_same_build(const MapBuildOptions& a, const MapBuildOptions& b) {
  EXPECT_EQ(a.tier, b.tier);
  EXPECT_EQ(a.probe_rounds, b.probe_rounds);
  EXPECT_EQ(a.ecs_map_services, b.ecs_map_services);
  EXPECT_EQ(a.recommend_links, b.recommend_links);
  EXPECT_EQ(a.collector_feeder_fraction, b.collector_feeder_fraction);
  EXPECT_EQ(a.routing_destination_stride, b.routing_destination_stride);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.workload.queries_per_activity, b.workload.queries_per_activity);
  EXPECT_EQ(a.workload.sessions_per_user, b.workload.sessions_per_user);
  EXPECT_EQ(a.workload.top_services, b.workload.top_services);
}

TEST(ScaleResolution, PinnedTiersResolveToTheirBuildOptions) {
  for (const ScaleTier tier : {ScaleTier::kMedium, ScaleTier::kHuge}) {
    SCOPED_TRACE(to_string(tier));
    ScenarioConfig config;
    MapBuildOptions options;
    ASSERT_TRUE(resolve_scale(to_string(tier), std::nullopt, config, options));
    EXPECT_EQ(options.tier, tier);
    expect_same_build(options, tier_build_options(tier));
    EXPECT_EQ(config.seed, tier_seed(tier));
    EXPECT_EQ(config.topology.num_access,
              tier_config(tier).topology.num_access);
    // An explicit seed replaces the pinned one and nothing else.
    ASSERT_TRUE(resolve_scale(to_string(tier), 7, config, options));
    EXPECT_EQ(config.seed, 7u);
    expect_same_build(options, tier_build_options(tier));
  }
}

TEST(ScaleResolution, PresetsKeepDefaultBuildOptions) {
  struct Preset {
    const char* name;
    ScenarioConfig (*make)(std::uint64_t);
  };
  for (const Preset preset : {Preset{"tiny", tiny_config},
                              Preset{"default", default_config},
                              Preset{"large", large_config}}) {
    SCOPED_TRACE(preset.name);
    ScenarioConfig config;
    MapBuildOptions options;
    ASSERT_TRUE(resolve_scale(preset.name, std::nullopt, config, options));
    EXPECT_EQ(options.tier, ScaleTier::kTiny);
    expect_same_build(options, MapBuildOptions{});
    EXPECT_EQ(config.seed, 42u);
    EXPECT_EQ(config.topology.num_access,
              preset.make(42).topology.num_access);
    ASSERT_TRUE(resolve_scale(preset.name, 9, config, options));
    EXPECT_EQ(config.seed, 9u);
  }
}

TEST(ScaleResolution, UnknownNameLeavesOutputsUntouched) {
  ScenarioConfig config;
  config.seed = 123;
  MapBuildOptions options;
  options.probe_rounds = 3;
  EXPECT_FALSE(resolve_scale("galactic", std::nullopt, config, options));
  EXPECT_FALSE(resolve_scale("", 5, config, options));
  EXPECT_EQ(config.seed, 123u);
  EXPECT_EQ(options.probe_rounds, 3u);
}

}  // namespace
}  // namespace itm::core
