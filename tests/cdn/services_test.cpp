#include "cdn/services.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "../test_scenario.h"

namespace itm::cdn {
namespace {

using itm::testing::shared_tiny_scenario;

TEST(ServiceCatalog, PopularitySumsToOne) {
  auto& s = shared_tiny_scenario();
  double total = 0;
  for (const auto& svc : s.catalog().services()) total += svc.popularity;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ServiceCatalog, HypergiantShareMatchesConfig) {
  auto& s = shared_tiny_scenario();
  const double hg_share = s.catalog().popularity_share(
      [](const Service& svc) { return svc.hypergiant.has_value(); });
  EXPECT_NEAR(hg_share, s.config().services.hypergiant_traffic_share, 1e-9);
}

TEST(ServiceCatalog, ByPopularityIsSorted) {
  auto& s = shared_tiny_scenario();
  const auto ranked = s.catalog().by_popularity();
  ASSERT_EQ(ranked.size(), s.catalog().size());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(s.catalog().service(ranked[i - 1]).popularity,
              s.catalog().service(ranked[i]).popularity);
  }
  // Most popular service is hypergiant-hosted by construction.
  EXPECT_TRUE(s.catalog().service(ranked.front()).hypergiant.has_value());
}

TEST(ServiceCatalog, HostnameLookup) {
  auto& s = shared_tiny_scenario();
  const auto& first = s.catalog().services().front();
  const auto* found = s.catalog().by_hostname(first.hostname);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, first.id);
  EXPECT_EQ(s.catalog().by_hostname("no-such-host.example"), nullptr);
}

TEST(ServiceCatalog, LongtailAreSingleSiteOnContentAses) {
  auto& s = shared_tiny_scenario();
  for (const auto& svc : s.catalog().services()) {
    if (svc.hypergiant) continue;
    EXPECT_EQ(svc.redirection, RedirectionKind::kSingleSite);
    EXPECT_EQ(s.topo().graph.info(svc.origin_as).type,
              topology::AsType::kContent);
    // Origin address belongs to the origin AS.
    const auto origin = s.topo().addresses.origin_of(svc.service_address);
    ASSERT_TRUE(origin.has_value());
    EXPECT_EQ(*origin, svc.origin_as);
  }
}

TEST(ServiceCatalog, ServiceAddressesUniqueWhereAssigned) {
  auto& s = shared_tiny_scenario();
  std::unordered_set<Ipv4Addr> seen;
  for (const auto& svc : s.catalog().services()) {
    if (svc.redirection == RedirectionKind::kDnsRedirection) continue;
    EXPECT_TRUE(seen.insert(svc.service_address).second)
        << svc.name << " collides at " << svc.service_address;
  }
}

TEST(ServiceCatalog, EcsOnlyOnDnsRedirection) {
  auto& s = shared_tiny_scenario();
  for (const auto& svc : s.catalog().services()) {
    if (svc.supports_ecs) {
      EXPECT_EQ(svc.redirection, RedirectionKind::kDnsRedirection);
    }
  }
}

TEST(ServiceCatalog, TtlsWithinConfiguredRange) {
  auto& s = shared_tiny_scenario();
  const auto& config = s.config().services;
  for (const auto& svc : s.catalog().services()) {
    EXPECT_GE(svc.dns_ttl_s, config.min_ttl_s);
    if (svc.hypergiant) {
      EXPECT_LE(svc.dns_ttl_s, config.max_ttl_s);
    }
  }
}

TEST(ServiceCatalog, VipsInsideHypergiantSpace) {
  auto& s = shared_tiny_scenario();
  for (const auto& svc : s.catalog().services()) {
    if (!svc.hypergiant ||
        svc.redirection == RedirectionKind::kDnsRedirection) {
      continue;
    }
    const auto origin = s.topo().addresses.origin_of(svc.service_address);
    ASSERT_TRUE(origin.has_value());
    EXPECT_EQ(*origin, s.deployment().hypergiant(*svc.hypergiant).asn);
  }
}

TEST(ServiceCatalog, PopularityShareHelper) {
  auto& s = shared_tiny_scenario();
  const double all = s.catalog().popularity_share([](const Service&) {
    return true;
  });
  EXPECT_NEAR(all, 1.0, 1e-9);
  const double none = s.catalog().popularity_share([](const Service&) {
    return false;
  });
  EXPECT_DOUBLE_EQ(none, 0.0);
}

}  // namespace
}  // namespace itm::cdn
