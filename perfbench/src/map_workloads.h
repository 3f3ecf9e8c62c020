// The map side of a run: generate a world, build its traffic map through
// the public entry points (core::Scenario::generate, core::MapBuilder::build),
// and check and serialize the result. The traced variant re-drives the
// generation and probing sequences call by call under spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct MapShape {
  itm::core::ScenarioConfig config;
  itm::core::MapBuildOptions options;
};

// "map-probe": a default-size world (user /24 count held in a narrow band,
// see map_workloads.cpp) with default build options (the shape `itm map`
// runs). "map-routing": the medium-tier topology with one user /24
// per access AS and 20+40 services, a strided routing destination set, one
// probe round and a light simulated day. "tiny": the tiny
// world, the map-side companion of the serve workloads.
[[nodiscard]] MapShape map_shape(const std::string& name, std::uint64_t seed,
                                 std::size_t threads);

struct MapRun {
  std::vector<double> generate_s;  // one per generation
  double setup_s = 0.0;            // median of generate_s
  double build_s = 0.0;
  double build_cpu_s = 0.0;        // process CPU time during the build
  itm::core::MapBuildTimings timings;
  double shard_imbalance = 0.0;    // routing stage max/mean shard time
  std::size_t ases = 0;
  std::size_t user_prefixes = 0;
  double matrix_total = 0.0;
  std::uint64_t matrix_hash = 0;
  std::vector<itm::Ipv4Prefix> detected;
  std::uint64_t probes_sent = 0;
  std::string snapshot;            // canonical `.itms` bytes of the map
  std::uint64_t snapshot_checksum = 0;
};

// Generates the world `generations` times (keeping the last), builds the map
// once and checks it: identical matrices across generations, a non-empty
// client set, and a snapshot that validates and re-writes byte-identically.
[[nodiscard]] MapRun run_map(const MapShape& shape, std::size_t generations,
                             Report& report);

// Traced re-drive of the two sequences (generation sub-calls; the probe
// stage's Workload/CacheProber calls on a fresh world) plus a route-table
// sample. Checks the replica reproduces `run` and records per-layer
// metrics, trace coverage and tracing overhead.
void trace_map_layers(const MapShape& shape, const MapRun& run,
                      Report& report, SpanRecorder& spans);

}  // namespace perfbench
