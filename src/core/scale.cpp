#include "core/scale.h"

#include "core/scenario.h"
#include "core/traffic_map.h"

namespace itm::core {

namespace {

// Pinned per-tier scenario seeds. Arbitrary but frozen: changing one resets
// the tier's bench trajectory (every committed BENCH_<tier>.json becomes
// incomparable), so treat them like a file-format constant.
constexpr std::uint64_t kTinySeed = 1117;
constexpr std::uint64_t kMediumSeed = 10111;
constexpr std::uint64_t kHugeSeed = 75011;

}  // namespace

const char* to_string(ScaleTier tier) {
  switch (tier) {
    case ScaleTier::kTiny: return "tiny";
    case ScaleTier::kMedium: return "medium";
    case ScaleTier::kHuge: return "huge";
  }
  return "unknown";
}

std::optional<ScaleTier> parse_scale_tier(std::string_view name) {
  if (name == "tiny") return ScaleTier::kTiny;
  if (name == "medium") return ScaleTier::kMedium;
  if (name == "huge") return ScaleTier::kHuge;
  return std::nullopt;
}

std::uint64_t tier_seed(ScaleTier tier) {
  switch (tier) {
    case ScaleTier::kTiny: return kTinySeed;
    case ScaleTier::kMedium: return kMediumSeed;
    case ScaleTier::kHuge: return kHugeSeed;
  }
  return kTinySeed;
}

ScenarioConfig tier_config(ScaleTier tier) {
  switch (tier) {
    case ScaleTier::kTiny:
      return tiny_config(kTinySeed);

    case ScaleTier::kMedium: {
      // >= 10k ASes and >= 100k routable /24s: the smallest size where the
      // topology, the user index and the compressed trie are exercised at
      // meaningfully more than cache-resident scale.
      ScenarioConfig c;
      c.seed = kMediumSeed;
      c.topology.geography.num_countries = 12;
      c.topology.geography.cities_per_country = 8;
      c.topology.num_tier1 = 12;
      c.topology.num_transit = 400;
      c.topology.num_access = 8000;
      c.topology.num_content = 1600;
      c.topology.num_hypergiants = 8;
      c.topology.num_enterprise = 2000;
      c.topology.addressing.user_24s_per_access_as = 16.0;
      c.topology.addressing.content_24s_per_hypergiant = 32.0;
      c.services.num_hypergiant_services = 150;
      c.services.num_longtail_services = 300;
      c.dns.public_pop_target = 24;
      return c;
    }

    case ScaleTier::kHuge: {
      // Internet-shaped magnitudes (paper Table 1): ~75k ASes and ~1M
      // routable /24s. Generable on a laptop; benched on demand.
      ScenarioConfig c;
      c.seed = kHugeSeed;
      c.topology.geography.num_countries = 20;
      c.topology.geography.cities_per_country = 10;
      c.topology.num_tier1 = 15;
      c.topology.num_transit = 1500;
      c.topology.num_access = 50000;
      c.topology.num_content = 15000;
      c.topology.num_hypergiants = 10;
      c.topology.num_enterprise = 8000;
      c.topology.addressing.user_24s_per_access_as = 16.0;
      c.topology.addressing.content_24s_per_hypergiant = 48.0;
      c.services.num_hypergiant_services = 200;
      c.services.num_longtail_services = 400;
      c.dns.public_pop_target = 32;
      return c;
    }
  }
  return tiny_config(kTinySeed);
}

MapBuildOptions tier_build_options(ScaleTier tier) {
  MapBuildOptions options;
  options.tier = tier;
  switch (tier) {
    case ScaleTier::kTiny:
      // The unit-test shape: every knob at its default.
      break;
    case ScaleTier::kMedium:
      // Full pipeline, sampled measurement surfaces: a lighter simulated
      // day, fewer probe sweeps and a strided destination set keep the
      // O(events) workload and O(destinations x graph) routing stages
      // inside a CI budget while every stage still executes.
      options.workload.queries_per_activity = 2.0;
      options.workload.sessions_per_user = 0.5;
      options.workload.top_services = 24;
      options.probe_rounds = 2;
      options.ecs_map_services = 4;
      options.routing_destination_stride = 16;
      break;
    case ScaleTier::kHuge:
      options.workload.queries_per_activity = 1.0;
      options.workload.sessions_per_user = 0.25;
      options.workload.top_services = 16;
      options.probe_rounds = 2;
      options.ecs_map_services = 2;
      options.routing_destination_stride = 256;
      break;
  }
  return options;
}

bool resolve_scale(std::string_view name, std::optional<std::uint64_t> seed,
                   ScenarioConfig& config, MapBuildOptions& options) {
  if (const auto tier = parse_scale_tier(name);
      tier && *tier != ScaleTier::kTiny) {
    config = tier_config(*tier);
    if (seed) config.seed = *seed;
    options = tier_build_options(*tier);
    return true;
  }
  // The presets keep the CLI's historical worlds: "tiny" is the unit-test
  // preset at the given seed, not the tiny tier's pinned one.
  const std::uint64_t preset_seed = seed.value_or(ScenarioConfig{}.seed);
  if (name == "tiny") {
    config = tiny_config(preset_seed);
  } else if (name == "default") {
    config = default_config(preset_seed);
  } else if (name == "large") {
    config = large_config(preset_seed);
  } else {
    return false;
  }
  options = MapBuildOptions{};
  return true;
}

}  // namespace itm::core
