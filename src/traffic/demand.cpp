#include "traffic/demand.h"

#include <cassert>
#include <limits>

#include "net/geo.h"
#include "routing/bgp.h"

namespace itm::traffic {

namespace {

// Nearest public-resolver PoP city to a client city (anycast approximation).
CityId nearest_pop_city(const topology::Geography& geo, CityId client,
                        std::span<const CityId> pop_cities) {
  assert(!pop_cities.empty());
  CityId best = pop_cities.front();
  double best_km = std::numeric_limits<double>::max();
  for (const CityId c : pop_cities) {
    const double km = geo.distance_km(c, client);
    if (km < best_km) {
      best_km = km;
      best = c;
    }
  }
  return best;
}

}  // namespace

TrafficMatrix TrafficMatrix::build(const topology::Topology& topo,
                                   const UserBase& users,
                                   const cdn::ServiceCatalog& catalog,
                                   const cdn::ClientMapper& mapper,
                                   std::span<const CityId> public_dns_pop_cities,
                                   const DemandConfig& config) {
  TrafficMatrix tm;
  const auto& graph = topo.graph;
  const std::size_t num_as = graph.size();
  tm.num_services_ = catalog.size();
  tm.num_hypergiants_ = mapper.deployment().hypergiants().size();
  tm.prefix_bytes_.assign(users.size(), 0.0);
  tm.prefix_hg_bytes_.assign(users.size() * tm.num_hypergiants_, 0.0);
  tm.hg_bytes_.assign(tm.num_hypergiants_, 0.0);
  tm.service_bytes_.assign(tm.num_services_, 0.0);
  tm.as_client_bytes_.assign(num_as, 0.0);
  tm.as_service_bytes_.assign(num_as * tm.num_services_, 0.0);
  tm.offnet_bytes_.assign(tm.num_hypergiants_, 0.0);
  tm.link_bytes_.assign(graph.links().size(), 0.0);
  tm.bytes_by_hops_.assign(24, 0.0);
  tm.pop_bytes_.assign(mapper.deployment().pops().size(), 0.0);

  const routing::Bgp bgp(graph);
  // Route tables toward every distinct serving AS, built on demand.
  std::unordered_map<std::uint32_t, routing::RouteTable> tables;
  const auto table_for = [&](Asn server_as) -> const routing::RouteTable& {
    auto it = tables.find(server_as.value());
    if (it == tables.end()) {
      it = tables.emplace(server_as.value(), bgp.routes_to(server_as)).first;
    }
    return it->second;
  };
  // Map from (smaller asn, larger asn) handled via neighbor scan; paths are
  // short so a linear scan per hop is fine.
  const auto link_index_between = [&](Asn a, Asn b) -> std::uint32_t {
    for (const auto& nb : graph.neighbors(a)) {
      if (nb.asn == b) return nb.link_index;
    }
    assert(false && "consecutive path ASes must be adjacent");
    return 0;
  };

  // DNS sites are table reads (ClientMapper's per-(hypergiant, city)
  // nearest-PoP table); the expensive part is path walking, memoized per
  // (client_as, server_as).
  struct PathInfo {
    std::vector<std::uint32_t> links;
    std::uint16_t hops = 0;
    bool reachable = false;
  };
  std::unordered_map<std::uint64_t, PathInfo> path_cache;
  static const PathInfo kSelfPath{{}, 0, true};
  const auto path_between = [&](Asn client, Asn server) -> const PathInfo& {
    // Intra-AS traffic (off-net cache hits) never needs a route table.
    if (client == server) return kSelfPath;
    const std::uint64_t key =
        (std::uint64_t{client.value()} << 32) | server.value();
    auto it = path_cache.find(key);
    if (it != path_cache.end()) return it->second;
    PathInfo info;
    const auto& table = table_for(server);
    if (table.at(client).reachable()) {
      const auto path = table.path_from(client);
      info.reachable = true;
      info.hops = static_cast<std::uint16_t>(path.size() - 1);
      info.links.reserve(info.hops);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        info.links.push_back(link_index_between(path[i], path[i + 1]));
      }
    }
    return path_cache.emplace(key, std::move(info)).first->second;
  };

  const auto account = [&](std::size_t prefix_index, const UserPrefix& up,
                           const cdn::Service& service,
                           const cdn::MappingResult& result, double bytes) {
    if (bytes <= 0) return;
    tm.total_bytes_ += bytes;
    tm.prefix_bytes_[prefix_index] += bytes;
    tm.service_bytes_[service.id.value()] += bytes;
    tm.as_client_bytes_[up.asn.value()] += bytes;
    tm.as_service_bytes_[up.asn.value() * tm.num_services_ +
                         service.id.value()] += bytes;
    if (service.hypergiant) {
      const auto hg = service.hypergiant->value();
      tm.hg_bytes_[hg] += bytes;
      tm.prefix_hg_bytes_[prefix_index * tm.num_hypergiants_ + hg] += bytes;
      if (result.offnet) tm.offnet_bytes_[hg] += bytes;
    }
    if (result.pop) tm.pop_bytes_[result.pop->value()] += bytes;
    const auto& path = path_between(up.asn, result.server_as);
    if (!path.reachable) tm.unreachable_bytes_ += bytes;
    if (path.reachable) {
      tm.bytes_by_hops_[std::min<std::size_t>(path.hops,
                                              tm.bytes_by_hops_.size() - 1)] +=
          bytes;
      for (const std::uint32_t link : path.links) {
        tm.link_bytes_[link] += bytes;
      }
    }
  };

  const auto& geo = topo.geography;
  // What a non-ECS authoritative sees of a public-resolver client depends
  // only on the client's city: the nearest public PoP's city, or the
  // client's own city when there are no public PoPs.
  std::vector<CityId> public_nonecs_city_of;
  public_nonecs_city_of.reserve(geo.cities().size());
  for (const auto& city : geo.cities()) {
    public_nonecs_city_of.push_back(
        public_dns_pop_cities.empty()
            ? city.id
            : nearest_pop_city(geo, city.id, public_dns_pop_cities));
  }
  const auto prefixes = users.all();
  for (std::size_t pi = 0; pi < prefixes.size(); ++pi) {
    const UserPrefix& up = prefixes[pi];
    // Approximation: the ISP-resolver path answers by the client AS's home
    // city even when the resolver is outsourced to a provider (providers
    // are in-country, usually the same main city).
    const CityId isp_resolver_city = graph.info(up.asn).home_city;
    const CityId public_nonecs_city = public_nonecs_city_of[up.city.value()];
    const std::uint64_t base_hash = up.prefix.base().bits();

    for (const auto& service : catalog.services()) {
      const double bytes =
          up.activity * service.popularity * config.bytes_scale;
      if (bytes <= 0) continue;

      if (service.redirection != cdn::RedirectionKind::kDnsRedirection) {
        const auto result = mapper.map(service, up.asn, up.city, up.city,
                                       base_hash ^ service.id.value());
        if (result.offnet && service.hypergiant) {
          const double hit = mapper.deployment()
                                 .hypergiant(*service.hypergiant)
                                 .offnet_hit_ratio;
          account(pi, up, service, result, bytes * hit);
          const auto fallback =
              mapper.map(service, up.asn, up.city, up.city,
                         base_hash ^ service.id.value(), /*allow_offnet=*/false);
          account(pi, up, service, fallback, bytes * (1.0 - hit));
        } else {
          account(pi, up, service, result, bytes);
        }
        continue;
      }

      // DNS-redirected: split by resolver population.
      const double shares[2] = {1.0 - up.public_dns_share,
                                up.public_dns_share};
      const CityId effective[2] = {
          // ISP resolver: authoritative sees the resolver's city.
          isp_resolver_city,
          // Public resolver: the client's own city with ECS, else the PoP.
          service.supports_ecs ? up.city : public_nonecs_city};
      for (int r = 0; r < 2; ++r) {
        const double part = bytes * shares[r];
        if (part <= 0) continue;
        // Off-net caches are handed out by DNS only when the authoritative
        // can identify the client's ISP: always for the ISP-resolver path
        // (resolver address), but on the public path only with ECS.
        const bool offnet_possible = r == 0 || service.supports_ecs;
        const auto result = mapper.map(service, up.asn, up.city, effective[r],
                                       base_hash ^ service.id.value(),
                                       offnet_possible);
        if (result.offnet && service.hypergiant) {
          const double hit = mapper.deployment()
                                 .hypergiant(*service.hypergiant)
                                 .offnet_hit_ratio;
          account(pi, up, service, result, part * hit);
          const auto fallback = mapper.map(service, up.asn, up.city,
                                           effective[r],
                                           base_hash ^ service.id.value(),
                                           /*allow_offnet=*/false);
          account(pi, up, service, fallback, part * (1.0 - hit));
        } else {
          account(pi, up, service, result, part);
        }
      }
    }
  }
  return tm;
}

}  // namespace itm::traffic
