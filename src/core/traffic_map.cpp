#include "core/traffic_map.h"

#include <algorithm>
#include <iterator>

#include "net/executor.h"
#include "net/ordered.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "scan/ecs_mapper.h"

namespace itm::core {

double TrafficMap::total_activity() const {
  double total = 0;
  // Key-sorted iteration: float accumulation order must not depend on hash
  // layout (itm-lint: nondet-iteration).
  for (const auto& [asn, score] : net::sorted_items(activity.by_as)) {
    total += score;
  }
  return total;
}

OutageImpact TrafficMap::outage_impact(Asn failed,
                                       const topology::AddressPlan& plan) const {
  OutageImpact impact;
  const double total = total_activity();
  if (total > 0) impact.activity_share = activity.score(failed) / total;
  for (const Ipv4Prefix& p : client_prefixes) {
    if (const auto asn = plan.origin_of(p); asn && *asn == failed) {
      ++impact.client_prefixes;
    }
  }
  // Front ends inside the failed AS, and the services mapped onto them.
  std::unordered_set<Ipv4Addr> inside;
  for (const auto& ep : tls.endpoints) {
    if (ep.origin_as == failed && !ep.inferred_operator.empty()) {
      inside.insert(ep.address);
    }
  }
  impact.servers_inside = inside.size();
  for (const auto& [service, mapping] : user_mapping) {
    const bool affected = std::any_of(
        mapping.begin(), mapping.end(),
        [&](const auto& kv) { return inside.contains(kv.second); });
    if (affected) {
      impact.services_served_from.push_back(ServiceId(service));
    }
  }
  std::sort(impact.services_served_from.begin(),
            impact.services_served_from.end());
  return impact;
}

namespace {

// Counts the DNS resolution activity a build stage caused: snapshots the
// system's cumulative stats and, on finish(), publishes the delta as obs
// counters. The workload driver is single-threaded, so every value is a pure
// function of the seed — deterministic across thread counts.
class DnsStatsDelta {
 public:
  explicit DnsStatsDelta(const dns::DnsSystem& dns)
      : dns_(&dns), before_(dns.stats()) {}

  void finish() const {
    const auto& after = dns_->stats();
    obs::count("dns.queries", after.queries - before_.queries);
    obs::count("dns.public.queries",
               after.public_queries - before_.public_queries);
    obs::count("dns.public.cache_hits",
               after.public_hits - before_.public_hits);
    obs::count("dns.public.cache_misses",
               after.public_misses - before_.public_misses);
    obs::count("dns.public.ttl_expiries",
               after.public_expired - before_.public_expired);
    obs::count("dns.isp.cache_hits", after.isp_hits - before_.isp_hits);
    obs::count("dns.isp.cache_misses", after.isp_misses - before_.isp_misses);
    obs::count("dns.isp.ttl_expiries",
               after.isp_expired - before_.isp_expired);
    obs::count("dns.cache.insertions", after.insertions - before_.insertions);
    obs::count("dns.cache.evictions", after.purged - before_.purged);
  }

 private:
  const dns::DnsSystem* dns_;
  dns::DnsSystem::Stats before_;
};

}  // namespace

TrafficMap MapBuilder::build(const MapBuildOptions& options) {
  Scenario& s = *scenario_;
  TrafficMap map;
  timings_ = MapBuildTimings{};
  obs::gauge_set("map.scale_tier", static_cast<std::int64_t>(options.tier));

  // Substrate arena gauges: how much memory the origin radix tree holds
  // going into the build. Wall-clock (capacity depends on allocator growth,
  // not the seed).
  {
    const auto& topo0 = s.topo();
    obs::gauge_set("arena.origin_trie_nodes",
                   static_cast<std::int64_t>(
                       topo0.addresses.origin_trie().node_count()),
                   obs::Determinism::kWallClock);
    obs::gauge_set("arena.origin_trie_bytes",
                   static_cast<std::int64_t>(
                       topo0.addresses.origin_trie().memory_bytes()),
                   obs::Determinism::kWallClock);
  }

  // One pool for every sharded stage; threads=1 is the legacy serial path.
  net::Executor executor(options.threads);

  // ---- Drive a day of user behaviour, probing caches along the way.
  {
    obs::StageScope span("map.workload_probe", 1, std::size(kMapStageNames));
    const DnsStatsDelta dns_delta(s.dns());
    Workload workload(s, options.workload, s.config().seed ^ 0x17f);
    prober_ = std::make_unique<scan::CacheProber>(
        s.dns(), s.catalog(), options.probing, &s.topo().addresses, &executor);
    const auto routable = s.topo().addresses.routable_slash24s();
    for (std::size_t round = 0; round < options.probe_rounds; ++round) {
      const SimTime at = (2 * round + 1) * options.workload.duration /
                         (2 * options.probe_rounds);
      workload.advance_to(at);
      prober_->sweep(routable, at);
    }
    workload.finish();
    dns_delta.finish();
    obs::count("map.workload_events", workload.processed_events());
    timings_.workload_probe_s = span.close();
  }

  // ---- Component 1: users and activity.
  map.client_prefixes = prober_->detected_prefixes();
  crawl_ = scan::crawl_root_logs(s.dns(), s.topo().addresses);
  const auto root_ases = crawl_.detected_ases();
  map.client_ases = inference::combine_detected(
      map.client_prefixes, root_ases, s.topo().addresses);
  map.activity = inference::combine_activity(
      inference::activity_from_cache_hits(*prober_, s.topo().addresses),
      inference::activity_from_root_logs(crawl_));
  obs::gauge_set("map.client_prefixes",
                 static_cast<std::int64_t>(map.client_prefixes.size()));
  obs::gauge_set("map.client_ases",
                 static_cast<std::int64_t>(map.client_ases.size()));
  obs::gauge_set("scan.root_crawl.detected_ases",
                 static_cast<std::int64_t>(root_ases.size()));

  // ---- Component 2: services.
  {
    obs::StageScope span("map.tls_scan", 2, std::size(kMapStageNames));
    std::vector<std::string> operator_names;
    for (const auto& hg : s.deployment().hypergiants()) {
      operator_names.push_back(hg.name);
    }
    const scan::TlsScanner tls_scanner(s.tls(), s.topo().addresses);
    map.tls = tls_scanner.sweep(operator_names, executor);
    timings_.tls_scan_s = span.close();
  }

  {
    obs::StageScope span("map.ecs_map", 3, std::size(kMapStageNames));
    const auto routable = s.topo().addresses.routable_slash24s();
    const scan::EcsMapper ecs_mapper(s.dns().authoritative(),
                                     s.topo().geography.cities().front().id);
    std::size_t mapped = 0;
    for (const ServiceId sid : s.catalog().by_popularity()) {
      if (mapped >= options.ecs_map_services) break;
      const auto& service = s.catalog().service(sid);
      if (service.redirection != cdn::RedirectionKind::kDnsRedirection ||
          !service.supports_ecs) {
        continue;
      }
      map.user_mapping.emplace(sid.value(),
                               ecs_mapper.sweep(service, routable, executor));
      ++mapped;
    }
    obs::gauge_set("map.services_mapped", static_cast<std::int64_t>(mapped));
    timings_.ecs_map_s = span.close();
  }
  // Service-id-sorted sweep list: geolocation appends client points per
  // server in sweep order, and the geometric median is a float computation
  // whose result depends on that order (itm-lint: nondet-iteration).
  std::vector<const std::unordered_map<Ipv4Prefix, Ipv4Addr>*> sweeps;
  sweeps.reserve(map.user_mapping.size());
  for (const auto sid : net::sorted_keys(map.user_mapping)) {
    sweeps.push_back(&map.user_mapping.at(sid));
  }
  // Client-side geolocation database: AS home city (public-geo accuracy).
  const auto& topo = s.topo();
  const inference::PrefixLocator locator =
      [&topo](const Ipv4Prefix& prefix) -> std::optional<GeoPoint> {
    const auto asn = topo.addresses.origin_of(prefix);
    if (!asn) return std::nullopt;
    return topo.geography.city(topo.graph.info(*asn).home_city).location;
  };
  map.server_locations = inference::geolocate_servers(sweeps, locator);

  // ---- Component 3: routes.
  {
    obs::StageScope span("map.routing", 4, std::size(kMapStageNames));
    const routing::Bgp bgp(topo.graph);
    std::vector<Asn> feeders = topo.tier1s;
    const auto n_transit_feeders = static_cast<std::size_t>(
        options.collector_feeder_fraction *
        static_cast<double>(topo.transits.size()));
    for (std::size_t i = 0; i < n_transit_feeders; ++i) {
      feeders.push_back(topo.transits[i]);
    }
    const std::size_t stride =
        std::max<std::size_t>(1, options.routing_destination_stride);
    std::vector<Asn> destinations;
    destinations.reserve(topo.graph.size() / stride + 1);
    for (std::size_t i = 0; i < topo.graph.size(); i += stride) {
      destinations.push_back(Asn(static_cast<std::uint32_t>(i)));
    }
    obs::gauge_set("map.routing.destinations",
                   static_cast<std::int64_t>(destinations.size()));
    map.public_view =
        routing::collect_public_view(bgp, feeders, destinations, executor);
    map.observed_graph =
        routing::observed_subgraph(topo.graph, map.public_view);
    timings_.routing_s = span.close();
  }

  {
    obs::StageScope span("map.inference", 5, std::size(kMapStageNames));
    const inference::PeeringRecommender recommender(s.peeringdb(),
                                                    map.observed_graph);
    map.recommended_links = recommender.recommend(options.recommend_links);
    map.augmented_graph =
        inference::augment_graph(map.observed_graph, map.recommended_links);
    timings_.inference_s = span.close();
  }
  return map;
}

}  // namespace itm::core
