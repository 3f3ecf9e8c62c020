// Scale tiers: the pinned substrate sizes the bench trajectory is measured
// at (DESIGN.md decision #10).
//
// A tier bundles a scenario size, a pinned RNG seed and a map-build
// configuration, so "the medium-tier build" names one exact, reproducible
// workload: BENCH_medium.json records produced months apart are measurements
// of the same world and comparable bar-for-bar. Tiers:
//
//   tiny   — the unit-test scenario (~70 ASes). Fast enough for a per-commit
//            bench gate (tools/check_bench.sh).
//   medium — the CI scale point: >= 10k ASes, >= 100k routable /24s. Runs
//            the full pipeline in minutes; `ctest -L scale` smokes it.
//   huge   — the Internet-shaped target: ~75k ASes, ~1M routable /24s
//            (the paper's Table 1 magnitudes). Defined and generable, but
//            benched on demand, not in CI.
//
// This header is dependency-light on purpose: MapBuildOptions carries a
// ScaleTier, so traffic_map.h includes it.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace itm::core {

struct ScenarioConfig;   // core/scenario.h
struct MapBuildOptions;  // core/traffic_map.h

enum class ScaleTier : std::uint8_t { kTiny, kMedium, kHuge };

[[nodiscard]] const char* to_string(ScaleTier tier);
// "tiny" / "medium" / "huge" -> tier; anything else -> nullopt.
[[nodiscard]] std::optional<ScaleTier> parse_scale_tier(std::string_view name);

// The tier's pinned scenario seed. Benches must not take the seed from the
// command line at a pinned tier — a different seed is a different world and
// its numbers are not comparable to the committed BENCH_*.json trajectory.
[[nodiscard]] std::uint64_t tier_seed(ScaleTier tier);

// Scenario generation config for the tier (seed already pinned).
[[nodiscard]] ScenarioConfig tier_config(ScaleTier tier);

// Map-build options scaled to the tier: larger tiers dial probe rounds and
// routing destinations down so the full pipeline stays tractable while every
// stage still runs. Deterministic for a fixed tier.
[[nodiscard]] MapBuildOptions tier_build_options(ScaleTier tier);

// Resolves a run's scale name to the world to generate and the options to
// build its map with. "medium" and "huge" are the pinned tiers:
// tier_config() and tier_build_options(), so a CLI run builds exactly what
// the bench measures; a given `seed` replaces the tier's pinned one.
// "tiny", "default" and "large" are the *_config(seed) presets with default
// build options (seed 42 when none is given). Returns false, leaving both
// outputs untouched, for any other name.
[[nodiscard]] bool resolve_scale(std::string_view name,
                                 std::optional<std::uint64_t> seed,
                                 ScenarioConfig& config,
                                 MapBuildOptions& options);

}  // namespace itm::core
