// The Internet Traffic Map: the assembled data product, and the builder
// pipeline that constructs it from public-data measurements only.
//
// The map's three components (Table 1 of the paper):
//   1. where users are and their relative activity,
//   2. where popular services are hosted and the user-to-host mapping,
//   3. the routes commonly used between them (observed + recommended links).
// MapBuilder never touches scenario ground truth except through legitimate
// measurement surfaces (cache probes, root-log crawls, TLS/SNI sweeps, ECS
// mapping queries, public BGP feeds, PeeringDB); benches then score the map
// against the ground truth the scenario kept hidden.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/scale.h"
#include "core/scenario.h"
#include "core/workload.h"
#include "inference/activity.h"
#include "inference/client_detection.h"
#include "inference/geolocation.h"
#include "inference/recommender.h"
#include "routing/prediction.h"
#include "routing/public_view.h"
#include "scan/cache_prober.h"
#include "scan/root_crawler.h"
#include "scan/tls_scanner.h"

namespace itm::core {

struct MapBuildOptions {
  WorkloadConfig workload;
  // Scale tier this build is part of (informational: recorded in metrics so
  // bench output is self-describing; tier_build_options() sets the knobs).
  ScaleTier tier = ScaleTier::kTiny;
  scan::CacheProbeConfig probing;
  // Cache-probing sweeps, spread evenly across the day.
  std::size_t probe_rounds = 16;
  // ECS mapping sweeps: the N most popular ECS services.
  std::size_t ecs_map_services = 6;
  // Peering links to accept from the recommender.
  std::size_t recommend_links = 400;
  // Fraction of transit ASes feeding route collectors.
  double collector_feeder_fraction = 0.15;
  // Route-collection destination sampling: keep every k-th AS (dense ASN
  // order) as a BGP destination. 1 = every AS (the legacy behaviour).
  // Collecting a view is O(destinations x (V + E)), so larger tiers use a
  // stride to stay inside a CI budget; sampling by stride is deterministic
  // and covers all AS types (ASNs are assigned per type in contiguous
  // blocks).
  std::size_t routing_destination_stride = 1;
  // Worker threads for the sharded stages (cache probing, TLS scan, ECS
  // mapping, BGP propagation). 0 = hardware concurrency; 1 = no pool, the
  // calling thread runs every shard. Output is byte-identical for every
  // value — threads only change wall-clock time (DESIGN.md decision #6).
  std::size_t threads = 0;
};

// Pipeline stage names as they appear in the tracer (obs::Span names) and in
// `itm map --trace-out` output, in execution order.
inline constexpr const char* kMapStageNames[] = {
    "map.workload_probe", "map.tls_scan", "map.ecs_map", "map.routing",
    "map.inference"};

// Wall-clock seconds spent in each pipeline stage of the last build. A
// compatibility *view* over the obs tracer spans (one per kMapStageNames
// entry) — the tracer is the single source of truth; this struct is filled
// from the span durations when a build finishes.
struct MapBuildTimings {
  double workload_probe_s = 0.0;
  double tls_scan_s = 0.0;
  double ecs_map_s = 0.0;
  double routing_s = 0.0;
  double inference_s = 0.0;
  [[nodiscard]] double total_s() const {
    return workload_probe_s + tls_scan_s + ecs_map_s + routing_s +
           inference_s;
  }
};

struct OutageImpact {
  // Share of the map's detected activity in the failed AS.
  double activity_share = 0.0;
  std::size_t client_prefixes = 0;
  // Services with front ends mapped inside the failed AS (e.g. off-nets).
  std::vector<ServiceId> services_served_from;
  // Front-end addresses inside the failed AS.
  std::size_t servers_inside = 0;
};

class TrafficMap {
 public:
  // ---- Component 1: users ----
  std::vector<Ipv4Prefix> client_prefixes;
  std::vector<Asn> client_ases;  // combined prefix- and resolver-derived
  inference::ActivityEstimate activity;

  // ---- Component 2: services ----
  scan::TlsScanResult tls;
  std::vector<inference::GeolocatedServer> server_locations;
  // service -> (client /24 -> front end) for ECS-mappable services.
  std::unordered_map<std::uint32_t,
                     std::unordered_map<Ipv4Prefix, Ipv4Addr>>
      user_mapping;

  // ---- Component 3: routes ----
  routing::PublicView public_view;
  topology::AsGraph observed_graph;
  std::vector<inference::LinkCandidate> recommended_links;
  topology::AsGraph augmented_graph;

  // Total estimated activity over all detected ASes.
  [[nodiscard]] double total_activity() const;

  // Map-only estimate of an AS outage's impact (uses no ground truth).
  [[nodiscard]] OutageImpact outage_impact(
      Asn failed, const topology::AddressPlan& plan) const;
};

class MapBuilder {
 public:
  explicit MapBuilder(Scenario& scenario) : scenario_(&scenario) {}

  [[nodiscard]] TrafficMap build(const MapBuildOptions& options = {});

  // Measurement byproducts of the last build (for benches).
  [[nodiscard]] const scan::CacheProber* last_prober() const {
    return prober_.get();
  }
  [[nodiscard]] const scan::RootCrawlResult& last_crawl() const {
    return crawl_;
  }
  // Per-stage wall time of the last build (for benches and the CLI); a view
  // over the obs tracer's stage spans. The full span record — including
  // per-sweep sub-spans — lives in the obs::Tracer that was current during
  // build() (see `itm map --trace-out`).
  [[nodiscard]] const MapBuildTimings& last_timings() const {
    return timings_;
  }

 private:
  Scenario* scenario_;
  std::unique_ptr<scan::CacheProber> prober_;
  scan::RootCrawlResult crawl_;
  MapBuildTimings timings_;
};

}  // namespace itm::core
