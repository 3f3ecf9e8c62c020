#include "topology/generator.h"

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "routing/bgp.h"
#include "provider_dag.h"

namespace itm::topology {
namespace {

TopologyConfig test_config() {
  TopologyConfig c;
  c.geography.num_countries = 8;
  c.geography.cities_per_country = 5;
  c.num_tier1 = 4;
  c.num_transit = 12;
  c.num_access = 40;
  c.num_content = 15;
  c.num_hypergiants = 3;
  c.num_enterprise = 10;
  return c;
}

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest() : rng_(77), topo_(generate_topology(test_config(), rng_)) {}
  Rng rng_;
  Topology topo_;
};

TEST_F(GeneratorTest, CountsMatchConfig) {
  EXPECT_EQ(topo_.tier1s.size(), 4u);
  EXPECT_EQ(topo_.transits.size(), 12u);
  EXPECT_EQ(topo_.accesses.size(), 40u);
  EXPECT_EQ(topo_.contents.size(), 15u);
  EXPECT_EQ(topo_.hypergiants.size(), 3u);
  EXPECT_EQ(topo_.enterprises.size(), 10u);
  EXPECT_EQ(topo_.graph.size(), 4u + 12 + 40 + 15 + 3 + 10);
}

TEST_F(GeneratorTest, Tier1FullMesh) {
  for (std::size_t i = 0; i < topo_.tier1s.size(); ++i) {
    for (std::size_t j = i + 1; j < topo_.tier1s.size(); ++j) {
      EXPECT_EQ(topo_.graph.relation(topo_.tier1s[i], topo_.tier1s[j]),
                Relation::kPeer);
    }
  }
}

TEST_F(GeneratorTest, EveryNonTier1HasAProvider) {
  for (const auto& as : topo_.graph.ases()) {
    if (as.type == AsType::kTier1) continue;
    EXPECT_GT(topo_.graph.degree(as.asn).providers, 0u)
        << as.name << " has no provider";
  }
}

TEST_F(GeneratorTest, EveryAsCanReachEveryTier1) {
  const routing::Bgp bgp(topo_.graph);
  const auto table = bgp.routes_to(topo_.tier1s.front());
  for (const auto& as : topo_.graph.ases()) {
    EXPECT_TRUE(table.at(as.asn).reachable()) << as.name;
  }
}

TEST_F(GeneratorTest, NamedIspsExistWithFixedSizes) {
  bool found_orange = false;
  for (const Asn asn : topo_.accesses) {
    const auto& info = topo_.graph.info(asn);
    if (info.name == "Orange") {
      found_orange = true;
      EXPECT_DOUBLE_EQ(info.size_factor, 3.2);
      EXPECT_EQ(info.country.value(), 0u);
    }
  }
  EXPECT_TRUE(found_orange);
}

TEST_F(GeneratorTest, HypergiantsPeerWithMostLargeEyeballs) {
  std::size_t large = 0, large_peered = 0, small = 0, small_peered = 0;
  for (const Asn a : topo_.accesses) {
    const bool is_large = topo_.graph.info(a).size_factor > 2.5;
    bool peered = false;
    for (const Asn h : topo_.hypergiants) {
      if (topo_.graph.relation(h, a) == Relation::kPeer) peered = true;
    }
    (is_large ? large : small) += 1;
    if (peered) (is_large ? large_peered : small_peered) += 1;
  }
  ASSERT_GT(large, 0u);
  ASSERT_GT(small, 0u);
  // Flattening: big eyeballs nearly always peer directly with a hypergiant,
  // and far more often than small ones.
  EXPECT_GT(static_cast<double>(large_peered) / large, 0.8);
  EXPECT_GT(static_cast<double>(large_peered) / large,
            static_cast<double>(small_peered) / small);
}

TEST_F(GeneratorTest, PeeringRequiresNoTier1OrEnterpriseEndpoints) {
  for (const auto& link : topo_.graph.links()) {
    if (link.a_to_b != Relation::kPeer) continue;
    const auto ta = topo_.graph.info(link.a).type;
    const auto tb = topo_.graph.info(link.b).type;
    const bool tier1_pair = ta == AsType::kTier1 && tb == AsType::kTier1;
    EXPECT_TRUE(tier1_pair || (ta != AsType::kTier1 && tb != AsType::kTier1));
    EXPECT_NE(ta, AsType::kEnterprise);
    EXPECT_NE(tb, AsType::kEnterprise);
  }
}

TEST_F(GeneratorTest, PeeringAffinityModelProperties) {
  const auto config = test_config();
  AsInfo open_content;
  open_content.type = AsType::kContent;
  open_content.policy = PeeringPolicy::kOpen;
  open_content.profile = TrafficProfile::kHeavyOutbound;
  open_content.size_factor = 1.0;
  AsInfo open_eyeball = open_content;
  open_eyeball.type = AsType::kAccess;
  open_eyeball.profile = TrafficProfile::kHeavyInbound;
  AsInfo restrictive = open_content;
  restrictive.policy = PeeringPolicy::kRestrictive;

  // No shared facility, no peering.
  EXPECT_DOUBLE_EQ(peering_affinity(open_content, open_eyeball, 0, config),
                   0.0);
  // Complementary open pairs peer more than restrictive ones.
  EXPECT_GT(peering_affinity(open_content, open_eyeball, 1, config),
            peering_affinity(restrictive, open_eyeball, 1, config));
  // More shared facilities help.
  EXPECT_GE(peering_affinity(open_content, open_eyeball, 3, config),
            peering_affinity(open_content, open_eyeball, 1, config));
  // Probability bounded.
  EXPECT_LE(peering_affinity(open_content, open_eyeball, 10, config), 0.95);
}

TEST_F(GeneratorTest, AccessesInSortedBySize) {
  const auto in_country = topo_.accesses_in(CountryId(0));
  for (std::size_t i = 1; i < in_country.size(); ++i) {
    EXPECT_GE(topo_.graph.info(in_country[i - 1]).size_factor,
              topo_.graph.info(in_country[i]).size_factor);
  }
}

TEST_F(GeneratorTest, DeterministicForSeed) {
  Rng r1(5), r2(5);
  const auto t1 = generate_topology(test_config(), r1);
  const auto t2 = generate_topology(test_config(), r2);
  ASSERT_EQ(t1.graph.size(), t2.graph.size());
  ASSERT_EQ(t1.graph.links().size(), t2.graph.links().size());
  for (std::size_t i = 0; i < t1.graph.links().size(); ++i) {
    EXPECT_EQ(t1.graph.links()[i].a, t2.graph.links()[i].a);
    EXPECT_EQ(t1.graph.links()[i].b, t2.graph.links()[i].b);
  }
}

TEST_F(GeneratorTest, HypergiantsSkipSomeSmallCountries) {
  // At least one (hypergiant, country) pair without presence, so anycast
  // can be suboptimal cross-border.
  bool some_absent = false;
  for (const Asn h : topo_.hypergiants) {
    const auto& info = topo_.graph.info(h);
    for (const auto& country : topo_.geography.countries()) {
      bool present = false;
      for (const CityId city : info.presence_cities) {
        if (topo_.geography.city(city).country == country.id) present = true;
      }
      if (!present) some_absent = true;
    }
  }
  EXPECT_TRUE(some_absent);
}

TEST(ProviderDag, KahnSweepStopsAtACycle) {
  // The check below is only as good as its sweep: a 3-cycle of transit
  // links plus one clean stub must leave the cycle unordered.
  AsGraph g;
  const Asn a = g.add_as(AsInfo{});
  const Asn b = g.add_as(AsInfo{});
  const Asn c = g.add_as(AsInfo{});
  const Asn stub = g.add_as(AsInfo{});
  g.add_transit(a, b);
  g.add_transit(b, c);
  g.add_transit(stub, a);
  EXPECT_EQ(kahn_ordered_ases(g), 4u);
  g.add_transit(c, a);
  EXPECT_EQ(kahn_ordered_ases(g), 1u);  // only the stub
}

TEST(ProviderDag, GeneratedTransitIsAcyclicAtTinyAndDefaultConfigs) {
  for (const TopologyConfig& config :
       {core::tiny_config(1234).topology, TopologyConfig{}}) {
    Rng rng(77);
    const auto topo = generate_topology(config, rng);
    EXPECT_EQ(kahn_ordered_ases(topo.graph), topo.graph.size());
  }
}

}  // namespace
}  // namespace itm::topology
