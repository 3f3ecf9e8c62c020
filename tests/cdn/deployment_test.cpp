#include "cdn/deployment.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "../test_scenario.h"

namespace itm::cdn {
namespace {

using itm::testing::shared_tiny_scenario;

TEST(Deployment, OneHypergiantPerConfiguredAs) {
  auto& s = shared_tiny_scenario();
  EXPECT_EQ(s.deployment().hypergiants().size(),
            s.topo().hypergiants.size());
  for (const auto& hg : s.deployment().hypergiants()) {
    EXPECT_EQ(s.topo().graph.info(hg.asn).type,
              topology::AsType::kHypergiant);
    EXPECT_NE(s.deployment().by_asn(hg.asn), nullptr);
  }
  EXPECT_EQ(s.deployment().by_asn(s.topo().accesses.front()), nullptr);
}

TEST(Deployment, OnnetAddressesInsideOwnSpace) {
  auto& s = shared_tiny_scenario();
  for (const auto& fe : s.deployment().front_ends()) {
    const auto& pop = s.deployment().pop(fe.pop);
    const auto origin = s.topo().addresses.origin_of(fe.address);
    ASSERT_TRUE(origin.has_value());
    EXPECT_EQ(*origin, pop.asn) << "front end outside its PoP's AS";
    if (!pop.offnet) {
      EXPECT_EQ(pop.asn, s.deployment().hypergiant(fe.owner).asn);
    }
  }
}

TEST(Deployment, OffnetsLiveInAccessNetworks) {
  auto& s = shared_tiny_scenario();
  std::size_t offnets = 0;
  for (const auto& pop : s.deployment().pops()) {
    if (!pop.offnet) continue;
    ++offnets;
    EXPECT_EQ(s.topo().graph.info(pop.asn).type, topology::AsType::kAccess);
    // offnet_in finds it.
    EXPECT_NE(s.deployment().offnet_in(pop.owner, pop.asn), nullptr);
  }
  EXPECT_GT(offnets, 0u);
}

TEST(Deployment, OffnetHeavyHypergiantsOnly) {
  auto& s = shared_tiny_scenario();
  const auto& config = s.config().deployment;
  for (const auto& hg : s.deployment().hypergiants()) {
    std::size_t offnet_count = 0;
    for (const PopId pid : hg.pops) {
      if (s.deployment().pop(pid).offnet) ++offnet_count;
    }
    if (hg.id.value() < config.offnet_heavy_hypergiants) {
      EXPECT_GT(offnet_count, 0u) << hg.name;
      EXPECT_GT(hg.offnet_hit_ratio, 0.0);
    } else {
      EXPECT_EQ(offnet_count, 0u) << hg.name;
      EXPECT_EQ(hg.offnet_hit_ratio, 0.0);
    }
  }
}

TEST(Deployment, FrontEndAddressesUnique) {
  auto& s = shared_tiny_scenario();
  std::unordered_set<Ipv4Addr> seen;
  for (const auto& fe : s.deployment().front_ends()) {
    EXPECT_TRUE(seen.insert(fe.address).second)
        << "duplicate " << fe.address;
  }
}

TEST(Deployment, NearestOnnetPopIsNearest) {
  auto& s = shared_tiny_scenario();
  const auto& geo = s.topo().geography;
  const auto& hg = s.deployment().hypergiants().front();
  for (const auto& city : geo.cities()) {
    const PopId nearest = s.mapper().optimal_site(hg.id, city.id);
    const double got = geo.distance_km(s.deployment().pop(nearest).city, city.id);
    for (const PopId pid : hg.pops) {
      const auto& pop = s.deployment().pop(pid);
      if (pop.offnet) continue;
      EXPECT_LE(got, geo.distance_km(pop.city, city.id) + 1e-9);
    }
  }
}

TEST(Deployment, EveryPopHasFrontEnds) {
  auto& s = shared_tiny_scenario();
  std::vector<std::size_t> counts(s.deployment().pops().size(), 0);
  for (const auto& fe : s.deployment().front_ends()) {
    ++counts[fe.pop.value()];
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GT(counts[i], 0u) << "PoP " << i;
  }
}

TEST(Deployment, BiggerEyeballsHostMoreOffnets) {
  auto& s = shared_tiny_scenario();
  // Count off-nets in large vs small eyeballs; large should dominate.
  double large_rate = 0, small_rate = 0;
  std::size_t large_n = 0, small_n = 0;
  for (const Asn a : s.topo().accesses) {
    std::size_t hosted = 0;
    for (const auto& hg : s.deployment().hypergiants()) {
      if (s.deployment().offnet_in(hg.id, a) != nullptr) ++hosted;
    }
    if (s.topo().graph.info(a).size_factor > 1.0) {
      large_rate += static_cast<double>(hosted);
      ++large_n;
    } else {
      small_rate += static_cast<double>(hosted);
      ++small_n;
    }
  }
  ASSERT_GT(large_n, 0u);
  ASSERT_GT(small_n, 0u);
  EXPECT_GE(large_rate / static_cast<double>(large_n),
            small_rate / static_cast<double>(small_n));
}

}  // namespace
}  // namespace itm::cdn
