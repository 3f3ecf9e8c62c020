#include "cdn/mapping.h"

#include <gtest/gtest.h>

#include "../test_scenario.h"
#include "net/geo.h"
#include "net/rng.h"

namespace itm::cdn {
namespace {

using itm::testing::shared_tiny_scenario;

const Service* find_service(const core::Scenario& s, RedirectionKind kind,
                            bool ecs = false) {
  for (const auto& svc : s.catalog().services()) {
    if (svc.redirection == kind && (!ecs || svc.supports_ecs)) return &svc;
  }
  return nullptr;
}

TEST(ClientMapper, SingleSiteAlwaysOrigin) {
  auto& s = shared_tiny_scenario();
  const auto* svc = find_service(s, RedirectionKind::kSingleSite);
  ASSERT_NE(svc, nullptr);
  const Asn client = s.topo().accesses.front();
  const auto result =
      s.mapper().map(*svc, client, CityId(0), CityId(0), 7);
  EXPECT_FALSE(result.pop.has_value());
  EXPECT_EQ(result.server_as, svc->origin_as);
  EXPECT_EQ(result.address, svc->service_address);
}

TEST(ClientMapper, DnsSiteIsDeterministic) {
  auto& s = shared_tiny_scenario();
  const auto* svc = find_service(s, RedirectionKind::kDnsRedirection);
  ASSERT_NE(svc, nullptr);
  for (const auto& city : s.topo().geography.cities()) {
    EXPECT_EQ(s.mapper().dns_site(*svc, city.id),
              s.mapper().dns_site(*svc, city.id));
  }
}

TEST(ClientMapper, DnsSiteMostlyNearest) {
  auto& s = shared_tiny_scenario();
  const auto& geo = s.topo().geography;
  std::size_t nearest = 0, total = 0;
  for (const auto& svc : s.catalog().services()) {
    if (svc.redirection != RedirectionKind::kDnsRedirection) continue;
    for (const auto& city : geo.cities()) {
      const PopId chosen = s.mapper().dns_site(svc, city.id);
      const PopId optimal = s.mapper().optimal_site(*svc.hypergiant, city.id);
      ++total;
      if (chosen == optimal) ++nearest;
    }
  }
  ASSERT_GT(total, 0u);
  const double rate = static_cast<double>(nearest) / static_cast<double>(total);
  // geo_mapping_accuracy is 0.9; allow sampling slack (ties can only help).
  EXPECT_GT(rate, 0.8);
  EXPECT_LE(rate, 1.0);
}

TEST(ClientMapper, AnycastUsesVipAddress) {
  auto& s = shared_tiny_scenario();
  const auto* svc = find_service(s, RedirectionKind::kAnycast);
  ASSERT_NE(svc, nullptr);
  const Asn client = s.topo().accesses.front();
  const auto& info = s.topo().graph.info(client);
  const auto result =
      s.mapper().map(*svc, client, info.home_city, info.home_city, 1);
  EXPECT_EQ(result.address, svc->service_address);
  ASSERT_TRUE(result.pop.has_value());
  EXPECT_FALSE(s.deployment().pop(*result.pop).offnet);
}

TEST(ClientMapper, AnycastCatchmentMatchesPrecomputation) {
  auto& s = shared_tiny_scenario();
  const HypergiantId hg(0);
  for (const Asn a : s.topo().accesses) {
    const PopId site = s.mapper().anycast_site(hg, a);
    // Site is one of the hypergiant's on-net PoPs.
    const auto& pop = s.deployment().pop(site);
    EXPECT_EQ(pop.owner, hg);
    EXPECT_FALSE(pop.offnet);
  }
}

TEST(ClientMapper, CustomUrlGoesToOptimalSiteWithoutOffnet) {
  auto& s = shared_tiny_scenario();
  const auto* svc = find_service(s, RedirectionKind::kCustomUrl);
  ASSERT_NE(svc, nullptr);
  // Pick a client AS without an off-net of this hypergiant.
  for (const Asn client : s.topo().accesses) {
    if (s.deployment().offnet_in(*svc->hypergiant, client) != nullptr) {
      continue;
    }
    const auto& info = s.topo().graph.info(client);
    const auto result =
        s.mapper().map(*svc, client, info.home_city, info.home_city, 3);
    ASSERT_TRUE(result.pop.has_value());
    EXPECT_EQ(*result.pop,
              s.mapper().optimal_site(*svc->hypergiant, info.home_city));
    break;
  }
}

TEST(ClientMapper, OffnetOverrideForCacheableServices) {
  auto& s = shared_tiny_scenario();
  // Find a cacheable hypergiant service and a client hosting its off-net.
  for (const auto& svc : s.catalog().services()) {
    if (!svc.hypergiant || !svc.offnet_cacheable) continue;
    for (const Asn client : s.topo().accesses) {
      const auto* offnet = s.deployment().offnet_in(*svc.hypergiant, client);
      if (offnet == nullptr) continue;
      const auto& info = s.topo().graph.info(client);
      const auto with = s.mapper().map(svc, client, info.home_city,
                                       info.home_city, 5);
      ASSERT_TRUE(with.pop.has_value());
      EXPECT_TRUE(with.offnet);
      EXPECT_EQ(with.server_as, client);
      const auto without =
          s.mapper().map(svc, client, info.home_city, info.home_city, 5,
                         /*allow_offnet=*/false);
      ASSERT_TRUE(without.pop.has_value());
      EXPECT_FALSE(without.offnet);
      EXPECT_NE(without.server_as, client);
      return;  // one pair suffices
    }
  }
  GTEST_SKIP() << "no cacheable service with off-net in tiny scenario";
}

TEST(ClientMapper, OptimalSiteMinimizesDistance) {
  auto& s = shared_tiny_scenario();
  const auto& geo = s.topo().geography;
  const HypergiantId hg(0);
  for (const auto& city : geo.cities()) {
    const PopId best = s.mapper().optimal_site(hg, city.id);
    const double best_km =
        geo.distance_km(s.deployment().pop(best).city, city.id);
    for (const PopId pid : s.deployment().hypergiant(hg).pops) {
      const auto& pop = s.deployment().pop(pid);
      if (pop.offnet) continue;
      EXPECT_LE(best_km, geo.distance_km(pop.city, city.id) + 1e-9);
    }
  }
}

TEST(ClientMapper, EffectiveCityChangesDnsAnswer) {
  // Mapping by a far-away effective city must (for some service/city pair)
  // give a different PoP than the true client city — the public-resolver
  // bias for non-ECS services.
  auto& s = shared_tiny_scenario();
  const auto& geo = s.topo().geography;
  bool differs = false;
  for (const auto& svc : s.catalog().services()) {
    if (svc.redirection != RedirectionKind::kDnsRedirection) continue;
    for (const auto& a : geo.cities()) {
      for (const auto& b : geo.cities()) {
        if (geo.distance_km(a.id, b.id) < 3000) continue;
        if (s.mapper().dns_site(svc, a.id) != s.mapper().dns_site(svc, b.id)) {
          differs = true;
          break;
        }
      }
      if (differs) break;
    }
    if (differs) break;
  }
  EXPECT_TRUE(differs);
}

// Brute-force reference for the mapper's nearest-PoP answers: the nearest
// and second-nearest on-net PoPs of `hg`, scanned in `hg.pops` order with a
// strict `<` so the first of equally distant PoPs wins.
struct NearestTwo {
  std::optional<PopId> best;
  std::optional<PopId> second;
};

NearestTwo scan_nearest_two(const Deployment& deployment,
                            const topology::Geography& geo,
                            const Hypergiant& hg, CityId city) {
  NearestTwo out;
  double best_km = 0, second_km = 0;
  for (const PopId pid : hg.pops) {
    const Pop& pop = deployment.pop(pid);
    if (pop.offnet) continue;
    const double km = geo.distance_km(pop.city, city);
    if (!out.best || km < best_km) {
      out.second = out.best;
      second_km = best_km;
      out.best = pid;
      best_km = km;
    } else if (!out.second || km < second_km) {
      out.second = pid;
      second_km = km;
    }
  }
  return out;
}

// The DNS geo-mapping error restated: a splitmix finalizer of
// (service id, effective city) picks the nearest PoP with probability
// `accuracy`, the second nearest otherwise.
bool geo_roll_picks_nearest(const Service& service, CityId city,
                            double accuracy) {
  std::uint64_t x = (std::uint64_t{service.id.value()} << 32) | city.value();
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < accuracy;
}

void expect_sites_match_scan(const topology::Topology& topo,
                             const Deployment& deployment,
                             const ServiceCatalog& catalog,
                             const ClientMapper& mapper, double accuracy) {
  const auto& geo = topo.geography;
  for (const auto& hg : deployment.hypergiants()) {
    for (const auto& city : geo.cities()) {
      const NearestTwo ref = scan_nearest_two(deployment, geo, hg, city.id);
      ASSERT_TRUE(ref.best.has_value()) << hg.name;
      EXPECT_EQ(mapper.optimal_site(hg.id, city.id), *ref.best)
          << hg.name << " city " << city.id.value();
    }
  }
  std::size_t checked = 0;
  for (const auto& svc : catalog.services()) {
    if (svc.redirection != RedirectionKind::kDnsRedirection) continue;
    const auto& hg = deployment.hypergiant(*svc.hypergiant);
    for (const auto& city : geo.cities()) {
      const NearestTwo ref = scan_nearest_two(deployment, geo, hg, city.id);
      const PopId expected =
          !ref.second || geo_roll_picks_nearest(svc, city.id, accuracy)
              ? *ref.best
              : *ref.second;
      EXPECT_EQ(mapper.dns_site(svc, city.id), expected)
          << "service " << svc.id.value() << " city " << city.id.value();
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ClientMapper, NearestSitesMatchBruteForceScan) {
  {
    SCOPED_TRACE("tiny");
    auto& s = shared_tiny_scenario();
    expect_sites_match_scan(s.topo(), s.deployment(), s.catalog(), s.mapper(),
                            s.config().mapping.geo_mapping_accuracy);
  }
  {
    // The default-size world up to the mapper, with Scenario::generate's
    // stream forks; the users, DNS and matrix stages are not needed.
    SCOPED_TRACE("default");
    const auto config = core::default_config();
    Rng root(config.seed);
    Rng topo_rng = root.fork(1);
    const auto topo = topology::generate_topology(config.topology, topo_rng);
    Rng deploy_rng = root.fork(2);
    const auto deployment =
        Deployment::build(topo, config.deployment, deploy_rng);
    Rng service_rng = root.fork(3);
    const auto catalog = ServiceCatalog::generate(topo, deployment,
                                                  config.services, service_rng);
    const ClientMapper mapper(topo, deployment, config.mapping);
    expect_sites_match_scan(topo, deployment, catalog, mapper,
                            config.mapping.geo_mapping_accuracy);
  }
}

}  // namespace
}  // namespace itm::cdn
