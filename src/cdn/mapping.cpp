#include "cdn/mapping.h"

#include <cassert>
#include <limits>

#include "net/geo.h"
#include "routing/bgp.h"

namespace itm::cdn {

namespace {

// Deterministic 64-bit mix (splitmix finalizer) for stable pseudo-random
// decisions keyed on ids.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// City where `client_as`'s traffic enters the hypergiant's network: where
// the penultimate AS of its route hands traffic to the hypergiant, at the
// link's interconnection facility when it declares one, else at the
// penultimate's home city. The client's own home city when it is the
// hypergiant or has no route to it.
CityId anycast_ingress_city(const topology::Topology& topo,
                            const routing::RouteTable& routes, Asn hg_asn,
                            Asn client_as) {
  const auto& graph = topo.graph;
  if (client_as == hg_asn || !routes.at(client_as).reachable()) {
    return graph.info(client_as).home_city;
  }
  const Asn penultimate = routes.penultimate(client_as);
  for (const auto& nb : graph.neighbors(penultimate)) {
    if (nb.asn != hg_asn) continue;
    const auto& link = graph.links()[nb.link_index];
    if (!link.facilities.empty()) {
      return topo.geography.facility(link.facilities.front()).city;
    }
    break;
  }
  return graph.info(penultimate).home_city;
}

}  // namespace

ClientMapper::ClientMapper(const topology::Topology& topo,
                           const Deployment& deployment, MappingConfig config)
    : topo_(&topo),
      deployment_(&deployment),
      config_(config),
      num_cities_(topo.geography.cities().size()) {
  const auto& geo = topo.geography;
  const auto& hypergiants = deployment.hypergiants();
  // The two nearest on-net PoPs of every (hypergiant, city); strict `<`
  // keeps the first of equally distant PoPs.
  nearest_.resize(hypergiants.size() * num_cities_);
  std::vector<PopId> onnet;
  for (const auto& hg : hypergiants) {
    onnet.clear();
    for (const PopId pid : hg.pops) {
      if (!deployment.pop(pid).offnet) onnet.push_back(pid);
    }
    assert(!onnet.empty() && "hypergiant has no on-net PoPs");
    for (const auto& city : geo.cities()) {
      NearestPops& entry =
          nearest_[hg.id.value() * num_cities_ + city.id.value()];
      double best_km = std::numeric_limits<double>::max();
      double second_km = std::numeric_limits<double>::max();
      for (const PopId pid : onnet) {
        const double km = geo.distance_km(deployment.pop(pid).city, city.id);
        if (km < best_km) {
          entry.second = entry.nearest;
          second_km = best_km;
          entry.nearest = pid;
          best_km = km;
        } else if (km < second_km) {
          entry.second = pid;
          second_km = km;
        }
      }
      entry.have_second = second_km < std::numeric_limits<double>::max();
    }
  }
  // Anycast catchments (hot path for the traffic matrix), one route table
  // toward the hypergiant alive at a time.
  const routing::Bgp bgp(topo.graph);
  anycast_catchment_.resize(hypergiants.size());
  for (const auto& hg : hypergiants) {
    const routing::RouteTable routes = bgp.routes_to(hg.asn);
    auto& table = anycast_catchment_[hg.id.value()];
    table.reserve(topo.graph.size());
    for (std::size_t a = 0; a < topo.graph.size(); ++a) {
      const CityId ingress = anycast_ingress_city(
          topo, routes, hg.asn, Asn(static_cast<std::uint32_t>(a)));
      table.push_back(nearest_pops(hg.id, ingress).nearest);
    }
  }
}

std::optional<PopId> ClientMapper::offnet_override(const Service& service,
                                                   Asn client_as) const {
  if (!service.hypergiant || !service.offnet_cacheable) return std::nullopt;
  const Pop* offnet = deployment_->offnet_in(*service.hypergiant, client_as);
  if (offnet == nullptr) return std::nullopt;
  return offnet->id;
}

MappingResult ClientMapper::finish(PopId pop, std::uint64_t flow_hash) const {
  const Pop& p = deployment_->pop(pop);
  MappingResult result;
  result.pop = pop;
  result.server_as = p.asn;
  result.server_city = p.city;
  result.offnet = p.offnet;
  const auto& fes = deployment_->front_end_addresses(pop);
  assert(!fes.empty() && "PoP has no front ends");
  result.address = fes[mix(flow_hash) % fes.size()];
  return result;
}

PopId ClientMapper::dns_site(const Service& service,
                             CityId effective_city) const {
  assert(service.hypergiant.has_value());
  const NearestPops& near = nearest_pops(*service.hypergiant, effective_city);
  if (!near.have_second) return near.nearest;
  // Deterministic geo-mapping error: a stable fraction of (service, city)
  // pairs map to the second-nearest site.
  const double roll =
      static_cast<double>(
          mix((std::uint64_t{service.id.value()} << 32) |
              effective_city.value()) >>
          11) *
      0x1.0p-53;
  return roll < config_.geo_mapping_accuracy ? near.nearest : near.second;
}

PopId ClientMapper::anycast_site(HypergiantId hg, Asn client_as) const {
  return anycast_catchment_[hg.value()][client_as.value()];
}

PopId ClientMapper::optimal_site(HypergiantId hg, CityId client_city) const {
  return nearest_pops(hg, client_city).nearest;
}

MappingResult ClientMapper::map(const Service& service, Asn client_as,
                                CityId client_city, CityId effective_city,
                                std::uint64_t flow_hash,
                                bool allow_offnet) const {
  if (service.redirection == RedirectionKind::kSingleSite) {
    MappingResult result;
    result.server_as = service.origin_as;
    result.server_city = topo_->graph.info(service.origin_as).home_city;
    result.address = service.service_address;
    return result;
  }
  if (allow_offnet) {
    if (const auto offnet = offnet_override(service, client_as)) {
      return finish(*offnet, flow_hash);
    }
  }
  switch (service.redirection) {
    case RedirectionKind::kDnsRedirection:
      return finish(dns_site(service, effective_city), flow_hash);
    case RedirectionKind::kAnycast: {
      MappingResult result =
          finish(anycast_site(*service.hypergiant, client_as), flow_hash);
      result.address = service.service_address;  // data plane uses the VIP
      return result;
    }
    case RedirectionKind::kCustomUrl:
      return finish(optimal_site(*service.hypergiant, client_city),
                    flow_hash);
    case RedirectionKind::kSingleSite:
      break;  // handled above
  }
  assert(false && "unreachable");
  return {};
}

}  // namespace itm::cdn
