#include "topology/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "net/ordered.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace itm::topology {

namespace {

struct NamedIsp {
  std::size_t country;
  const char* name;
  double size_factor;
};

// Stand-in names for large eyeballs in the first five countries so the
// Figure 2 reproduction prints recognizable rows (synthetic networks).
constexpr NamedIsp kNamedIsps[] = {
    {0, "Orange", 3.2},  {0, "SFR", 2.4},     {0, "Free", 1.9},
    {0, "Bouygues", 1.3},{0, "Free_M", 0.8},  {0, "El_tele", 0.2},
    {1, "NTT_E", 4.5},   {1, "KDDI_J", 2.8},  {1, "SoftB_J", 2.4},
    {2, "KT_K", 2.2},    {2, "SKB_K", 1.7},   {2, "LGU_K", 1.2},
    {3, "BT_A", 2.6},    {3, "Sky_A", 1.8},   {3, "VirginM", 1.5},
    {4, "Comca", 6.0},   {4, "Chart", 4.0},   {4, "ATT_C", 3.5},
    {4, "Verz", 2.5},
};

const char* kHypergiantNames[] = {"HG-Search", "HG-Social", "HG-Video",
                                  "HG-Cloud",  "HG-Shop",   "HG-CDN",
                                  "HG-Games",  "HG-News"};

// Facilities of the geographically largest city of a country.
std::vector<FacilityId> main_facilities(const Geography& geo,
                                        CountryId country) {
  const auto& c = geo.country(country);
  return geo.facilities_in(c.cities.front());
}

std::vector<FacilityId> some_facilities(const Geography& geo, CityId city,
                                        std::size_t max_count, Rng& rng) {
  auto all = geo.facilities_in(city);
  if (all.size() > max_count) {
    rng.shuffle(all);
    all.resize(max_count);
  }
  return all;
}

std::size_t shared_facility_count(const AsInfo& a, const AsInfo& b) {
  std::size_t shared = 0;
  for (const auto fa : a.facilities) {
    for (const auto fb : b.facilities) {
      if (fa == fb) {
        ++shared;
        break;
      }
    }
  }
  return shared;
}

std::vector<FacilityId> shared_facilities(const AsInfo& a, const AsInfo& b) {
  std::vector<FacilityId> shared;
  for (const auto fa : a.facilities) {
    for (const auto fb : b.facilities) {
      if (fa == fb) {
        shared.push_back(fa);
        break;
      }
    }
  }
  return shared;
}

double policy_scale(PeeringPolicy a, PeeringPolicy b, double peer_size) {
  const bool a_restrictive = a == PeeringPolicy::kRestrictive;
  const bool b_restrictive = b == PeeringPolicy::kRestrictive;
  if (a_restrictive || b_restrictive) {
    // Restrictive networks only entertain very large peers.
    return peer_size > 2.5 ? 0.25 : 0.02;
  }
  const int open_count = (a == PeeringPolicy::kOpen ? 1 : 0) +
                         (b == PeeringPolicy::kOpen ? 1 : 0);
  switch (open_count) {
    case 2: return 0.9;
    case 1: return 0.5;
    default: return 0.3;
  }
}

double profile_scale(TrafficProfile a, TrafficProfile b) {
  const auto outboundness = [](TrafficProfile p) {
    switch (p) {
      case TrafficProfile::kHeavyOutbound: return 2;
      case TrafficProfile::kMostlyOutbound: return 1;
      case TrafficProfile::kBalanced: return 0;
      case TrafficProfile::kMostlyInbound: return -1;
      case TrafficProfile::kHeavyInbound: return -2;
    }
    return 0;
  };
  const int ab = outboundness(a) * outboundness(b);
  if (ab < 0) return 1.5;   // complementary: content <-> eyeball
  if (ab > 1) return 0.7;   // both strongly same-direction
  return 1.0;
}

}  // namespace

double peering_affinity(const AsInfo& a, const AsInfo& b,
                        std::size_t shared, const TopologyConfig& config) {
  if (shared == 0) return 0.0;
  if (a.type == AsType::kTier1 || b.type == AsType::kTier1) return 0.0;
  if (a.type == AsType::kEnterprise || b.type == AsType::kEnterprise)
    return 0.0;
  double p = config.peering_base;
  p *= policy_scale(a.policy, b.policy, std::min(a.size_factor, b.size_factor));
  p *= profile_scale(a.profile, b.profile);
  p *= std::min(1.5, std::sqrt(static_cast<double>(shared)));
  if (a.type == AsType::kTransit && b.type == AsType::kTransit) p *= 0.5;
  return std::clamp(p, 0.0, 0.95);
}

std::vector<Asn> Topology::accesses_in(CountryId country) const {
  std::vector<Asn> out;
  for (const Asn asn : accesses) {
    if (graph.info(asn).country == country) out.push_back(asn);
  }
  std::sort(out.begin(), out.end(), [&](Asn a, Asn b) {
    return graph.info(a).size_factor > graph.info(b).size_factor;
  });
  return out;
}

Topology generate_topology(const TopologyConfig& config, Rng& rng) {
  ITM_SPAN("topology.generate");
  Topology topo;
  topo.geography = Geography::generate(config.geography, rng);
  const Geography& geo = topo.geography;
  AsGraph& graph = topo.graph;

  const std::size_t num_countries = geo.countries().size();

  // ---- Tier-1 backbones: present at the main facility of every country.
  for (std::size_t i = 0; i < config.num_tier1; ++i) {
    AsInfo info;
    info.type = AsType::kTier1;
    info.name = "T1-" + std::to_string(i);
    info.country = CountryId(static_cast<std::uint32_t>(i % num_countries));
    info.home_city = geo.country(info.country).cities.front();
    info.policy = PeeringPolicy::kRestrictive;
    info.profile = TrafficProfile::kBalanced;
    info.size_factor = rng.uniform(2.0, 4.0);
    for (const auto& country : geo.countries()) {
      info.presence_cities.push_back(country.cities.front());
      for (const auto f : main_facilities(geo, country.id)) {
        info.facilities.push_back(f);
      }
    }
    topo.tier1s.push_back(graph.add_as(std::move(info)));
  }

  // ---- Transit providers: national, present in the country's top cities.
  for (std::size_t i = 0; i < config.num_transit; ++i) {
    AsInfo info;
    info.type = AsType::kTransit;
    info.country = geo.sample_country(rng);
    info.name = "TR-" + geo.country(info.country).name + "-" +
                std::to_string(i);
    const auto& cities = geo.country(info.country).cities;
    info.home_city = cities.front();
    info.policy = rng.bernoulli(0.3) ? PeeringPolicy::kOpen
                                     : PeeringPolicy::kSelective;
    info.profile = TrafficProfile::kBalanced;
    info.size_factor = rng.pareto(0.5, 1.4);
    const std::size_t span = std::min<std::size_t>(cities.size(), 3);
    for (std::size_t c = 0; c < span; ++c) {
      info.presence_cities.push_back(cities[c]);
      for (const auto f : some_facilities(geo, cities[c], 2, rng)) {
        info.facilities.push_back(f);
      }
    }
    topo.transits.push_back(graph.add_as(std::move(info)));
  }

  // ---- Access (eyeball) networks, heavy-tailed sizes; named stand-ins
  // first so the Figure 2 case-study rows exist at any scale.
  std::unordered_map<std::uint32_t, std::size_t> named_used;  // country -> next
  for (std::size_t i = 0; i < config.num_access; ++i) {
    AsInfo info;
    info.type = AsType::kAccess;
    info.country = geo.sample_country(rng);
    bool named = false;
    const auto used = named_used[info.country.value()];
    std::size_t seen = 0;
    for (const auto& isp : kNamedIsps) {
      if (isp.country == info.country.value()) {
        if (seen == used) {
          info.name = isp.name;
          info.size_factor = isp.size_factor;
          named = true;
          ++named_used[info.country.value()];
          break;
        }
        ++seen;
      }
    }
    if (!named) {
      info.name = "ISP-" + geo.country(info.country).name + "-" +
                  std::to_string(i);
      info.size_factor = std::min(8.0, rng.pareto(0.3, config.access_size_alpha));
    }
    info.home_city = geo.sample_city(info.country, rng);
    info.policy = info.size_factor > 2.0
                      ? PeeringPolicy::kSelective
                      : (rng.bernoulli(0.5) ? PeeringPolicy::kOpen
                                            : PeeringPolicy::kSelective);
    info.profile = info.size_factor > 1.0 ? TrafficProfile::kHeavyInbound
                                          : TrafficProfile::kMostlyInbound;
    // Bigger eyeballs colocate: home-city facilities plus the national hub.
    if (info.size_factor > 0.6) {
      for (const auto f : some_facilities(geo, info.home_city, 2, rng)) {
        info.facilities.push_back(f);
      }
      for (const auto f : main_facilities(geo, info.country)) {
        if (std::find(info.facilities.begin(), info.facilities.end(), f) ==
            info.facilities.end()) {
          info.facilities.push_back(f);
        }
      }
    }
    topo.accesses.push_back(graph.add_as(std::move(info)));
  }

  // ---- Content networks.
  for (std::size_t i = 0; i < config.num_content; ++i) {
    AsInfo info;
    info.type = AsType::kContent;
    info.country = geo.sample_country(rng);
    info.name = "CT-" + std::to_string(i);
    info.home_city = geo.sample_city(info.country, rng);
    info.policy = PeeringPolicy::kOpen;
    info.profile = rng.bernoulli(0.7) ? TrafficProfile::kHeavyOutbound
                                      : TrafficProfile::kMostlyOutbound;
    info.size_factor = std::min(4.0, rng.pareto(0.4, 1.3));
    for (const auto f : some_facilities(geo, info.home_city, 2, rng)) {
      info.facilities.push_back(f);
    }
    topo.contents.push_back(graph.add_as(std::move(info)));
  }

  // ---- Hypergiants: global facility presence.
  for (std::size_t i = 0; i < config.num_hypergiants; ++i) {
    AsInfo info;
    info.type = AsType::kHypergiant;
    info.country = CountryId(static_cast<std::uint32_t>(i % num_countries));
    info.name = i < std::size(kHypergiantNames)
                    ? kHypergiantNames[i]
                    : "HG-" + std::to_string(i);
    info.home_city = geo.country(info.country).cities.front();
    info.policy = PeeringPolicy::kSelective;
    info.profile = TrafficProfile::kHeavyOutbound;
    info.size_factor = rng.uniform(4.0, 8.0);
    // Hypergiants build out the large markets (top 70% of countries by user
    // share) and only sometimes the small ones, so some users are served
    // cross-border (this drives the anycast-suboptimality experiment).
    std::vector<double> shares;
    for (const auto& country : geo.countries()) {
      shares.push_back(country.user_share);
    }
    std::sort(shares.begin(), shares.end(), std::greater<>());
    const std::size_t guaranteed = std::max<std::size_t>(
        1, static_cast<std::size_t>(0.7 * static_cast<double>(shares.size())));
    const double share_floor = shares[guaranteed - 1];
    for (const auto& country : geo.countries()) {
      const bool home = country.id == info.country;
      if (!home && country.user_share < share_floor && !rng.bernoulli(0.3)) {
        continue;
      }
      info.presence_cities.push_back(country.cities.front());
      for (const auto f : main_facilities(geo, country.id)) {
        info.facilities.push_back(f);
      }
      if (country.cities.size() > 1 && country.user_share > 0.1) {
        info.presence_cities.push_back(country.cities[1]);
        for (const auto f : geo.facilities_in(country.cities[1])) {
          info.facilities.push_back(f);
        }
      }
    }
    topo.hypergiants.push_back(graph.add_as(std::move(info)));
  }

  // ---- Enterprise stubs.
  for (std::size_t i = 0; i < config.num_enterprise; ++i) {
    AsInfo info;
    info.type = AsType::kEnterprise;
    info.country = geo.sample_country(rng);
    info.name = "EN-" + std::to_string(i);
    info.home_city = geo.sample_city(info.country, rng);
    info.policy = PeeringPolicy::kRestrictive;
    info.profile = TrafficProfile::kMostlyInbound;
    info.size_factor = rng.uniform(0.1, 0.5);
    topo.enterprises.push_back(graph.add_as(std::move(info)));
  }

  // ================= Links =================

  // Tier-1 full mesh (settlement-free).
  for (std::size_t i = 0; i < topo.tier1s.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1s.size(); ++j) {
      graph.add_peering(topo.tier1s[i], topo.tier1s[j],
                        shared_facilities(graph.info(topo.tier1s[i]),
                                          graph.info(topo.tier1s[j])));
    }
  }

  // Transit providers buy from 1-2 tier-1s.
  for (const Asn t : topo.transits) {
    const std::size_t count = 1 + (rng.bernoulli(0.6) ? 1 : 0);
    for (const std::size_t idx :
         rng.sample_indices(topo.tier1s.size(), std::min(count, topo.tier1s.size()))) {
      if (!graph.adjacent(t, topo.tier1s[idx])) {
        graph.add_transit(t, topo.tier1s[idx]);
      }
    }
  }

  // Helper: transit providers serving a country (by presence), largest first.
  const auto transits_in = [&](CountryId country) {
    std::vector<Asn> in_country;
    for (const Asn t : topo.transits) {
      if (graph.info(t).country == country) in_country.push_back(t);
    }
    std::sort(in_country.begin(), in_country.end(), [&](Asn a, Asn b) {
      return graph.info(a).size_factor > graph.info(b).size_factor;
    });
    return in_country;
  };

  // Access networks buy transit from national providers (falling back to
  // tier-1s for countries with no transit provider).
  for (const Asn a : topo.accesses) {
    auto candidates = transits_in(graph.info(a).country);
    if (candidates.empty()) candidates = topo.tier1s;
    const std::size_t want =
        1 + rng.next_below(std::min(config.max_access_providers,
                                    candidates.size()));
    for (const std::size_t idx :
         rng.sample_indices(candidates.size(), std::min(want, candidates.size()))) {
      if (!graph.adjacent(a, candidates[idx])) {
        graph.add_transit(a, candidates[idx]);
      }
    }
  }

  // Content networks buy 1-2 transits (anywhere; hosting follows price).
  for (const Asn c : topo.contents) {
    const std::size_t want = 1 + (rng.bernoulli(0.4) ? 1 : 0);
    for (const std::size_t idx :
         rng.sample_indices(topo.transits.size(),
                            std::min(want, topo.transits.size()))) {
      if (!graph.adjacent(c, topo.transits[idx])) {
        graph.add_transit(c, topo.transits[idx]);
      }
    }
  }

  // Hypergiants buy from several tier-1s for universal reach.
  for (const Asn h : topo.hypergiants) {
    for (const std::size_t idx :
         rng.sample_indices(topo.tier1s.size(),
                            std::min<std::size_t>(3, topo.tier1s.size()))) {
      if (!graph.adjacent(h, topo.tier1s[idx])) {
        graph.add_transit(h, topo.tier1s[idx]);
      }
    }
  }

  // Enterprises single-home to an access or transit network in-country.
  for (const Asn e : topo.enterprises) {
    std::vector<Asn> candidates;
    for (const Asn a : topo.accesses) {
      if (graph.info(a).country == graph.info(e).country) {
        candidates.push_back(a);
      }
    }
    if (candidates.empty()) candidates = transits_in(graph.info(e).country);
    if (candidates.empty()) candidates = topo.tier1s;
    graph.add_transit(e, candidates[rng.next_below(candidates.size())]);
  }

  // Facility-based peering among transit/access/content ASes, following the
  // ground-truth affinity model.
  std::unordered_map<std::uint32_t, std::vector<Asn>> facility_members;
  for (const auto& as : graph.ases()) {
    if (as.type == AsType::kTier1 || as.type == AsType::kEnterprise ||
        as.type == AsType::kHypergiant) {
      continue;  // tier-1s already meshed; hypergiants handled below
    }
    for (const auto f : as.facilities) {
      facility_members[f.value()].push_back(as.asn);
    }
  }
  std::unordered_set<std::uint64_t> considered;
  // Facility-sorted iteration: each candidate pair consumes rng.bernoulli
  // draws, so the visit order decides which pairs see which draws
  // (itm-lint: nondet-iteration).
  for (const auto& [facility, members] : net::sorted_items(facility_members)) {
    (void)facility;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        const Asn a = members[i];
        const Asn b = members[j];
        if (!considered.insert(asn_pair_key(a, b)).second) continue;
        if (graph.adjacent(a, b)) continue;
        const auto& ia = graph.info(a);
        const auto& ib = graph.info(b);
        const auto shared = shared_facility_count(ia, ib);
        if (rng.bernoulli(peering_affinity(ia, ib, shared, config))) {
          graph.add_peering(a, b, shared_facilities(ia, ib));
        }
      }
    }
  }

  // Hypergiant flattening: direct (often PNI) peering with eyeballs, with
  // probability strongly superlinear in eyeball size — so most *users* end
  // up one hop away while most *routes* (small ASes) still go via transit,
  // the route/user contrast of §2.1.
  for (const Asn h : topo.hypergiants) {
    for (const Asn a : topo.accesses) {
      if (graph.adjacent(h, a)) continue;
      const double size = graph.info(a).size_factor;
      const double p = std::clamp(
          config.hypergiant_peering_base *
              (0.2 + 0.7 * std::pow(size, 1.4)),
          0.0, 0.97);
      if (rng.bernoulli(p)) {
        graph.add_peering(h, a,
                          shared_facilities(graph.info(h), graph.info(a)));
      }
    }
    // Hypergiants peer with some transit networks at shared colos; kept
    // rare so that many small-eyeball routes ingress via a tier-1 far from
    // home (the anycast route-suboptimality the paper reports).
    for (const Asn t : topo.transits) {
      if (graph.adjacent(h, t)) continue;
      const auto shared =
          shared_facility_count(graph.info(h), graph.info(t));
      if (shared > 0 && rng.bernoulli(0.2)) {
        graph.add_peering(h, t,
                          shared_facilities(graph.info(h), graph.info(t)));
      }
    }
  }

  // IXPs with route servers at the main facility of larger countries.
  if (config.build_ixps) {
    std::vector<double> country_shares;
    for (const auto& country : geo.countries()) {
      country_shares.push_back(country.user_share);
    }
    std::sort(country_shares.begin(), country_shares.end());
    const double ixp_share_floor = country_shares[country_shares.size() / 2];
    for (const auto& country : geo.countries()) {
      if (country.user_share < ixp_share_floor) continue;
      const auto facilities = main_facilities(geo, country.id);
      if (facilities.empty()) continue;
      Ixp ixp;
      ixp.id = IxpId(static_cast<std::uint32_t>(topo.ixps.size()));
      ixp.name = country.name + "-IX";
      ixp.facility = facilities.front();
      for (const auto& as : graph.ases()) {
        if (as.type == AsType::kTier1 || as.type == AsType::kEnterprise ||
            as.type == AsType::kHypergiant) {
          continue;  // tier-1s/hypergiants use PNIs; enterprises don't peer
        }
        if (std::find(as.facilities.begin(), as.facilities.end(),
                      ixp.facility) == as.facilities.end()) {
          continue;
        }
        const double p_join = as.policy == PeeringPolicy::kOpen
                                  ? config.ixp_join_open
                                  : config.ixp_join_selective;
        if (!rng.bernoulli(p_join)) continue;
        ixp.members.push_back(as.asn);
        const double p_rs = as.policy == PeeringPolicy::kOpen
                                ? config.ixp_route_server_rate
                                : config.ixp_route_server_selective;
        if (rng.bernoulli(p_rs)) {
          ixp.route_server_participants.push_back(as.asn);
        }
      }
      // Multilateral mesh among route-server participants.
      for (std::size_t i = 0; i < ixp.route_server_participants.size(); ++i) {
        for (std::size_t j = i + 1; j < ixp.route_server_participants.size();
             ++j) {
          const Asn a = ixp.route_server_participants[i];
          const Asn b = ixp.route_server_participants[j];
          if (!graph.adjacent(a, b)) {
            graph.add_peering(a, b, {ixp.facility},
                              /*via_route_server=*/true);
          }
        }
      }
      if (!ixp.members.empty()) topo.ixps.push_back(std::move(ixp));
    }
  }

  topo.addresses = AddressPlan::build(graph, config.addressing);

  // Inventory gauges: seed-deterministic, idempotent across regenerations
  // within one registry scope.
  obs::gauge_set("topology.ases", static_cast<std::int64_t>(graph.size()));
  obs::gauge_set("topology.links",
                 static_cast<std::int64_t>(graph.links().size()));
  obs::gauge_set("topology.ixps", static_cast<std::int64_t>(topo.ixps.size()));
  obs::gauge_set("topology.facilities",
                 static_cast<std::int64_t>(geo.facilities().size()));
  obs::gauge_set("topology.routable_slash24s",
                 static_cast<std::int64_t>(
                     topo.addresses.total_slash24_count()));
  return topo;
}

}  // namespace itm::topology
