#include "topology/as_graph.h"

#include <gtest/gtest.h>

namespace itm::topology {
namespace {

AsInfo mk(const char* name) {
  AsInfo info;
  info.name = name;
  info.type = AsType::kTransit;
  return info;
}

TEST(AsGraph, AddAsAssignsDenseAsns) {
  AsGraph g;
  const Asn a = g.add_as(mk("a"));
  const Asn b = g.add_as(mk("b"));
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.info(a).name, "a");
}

TEST(AsGraph, TransitRelationsAreAsymmetric) {
  AsGraph g;
  const Asn customer = g.add_as(mk("c"));
  const Asn provider = g.add_as(mk("p"));
  g.add_transit(customer, provider);
  EXPECT_EQ(g.relation(customer, provider), Relation::kProvider);
  EXPECT_EQ(g.relation(provider, customer), Relation::kCustomer);
  EXPECT_TRUE(g.adjacent(customer, provider));
  EXPECT_TRUE(g.adjacent(provider, customer));
}

TEST(AsGraph, PeeringIsSymmetric) {
  AsGraph g;
  const Asn a = g.add_as(mk("a"));
  const Asn b = g.add_as(mk("b"));
  g.add_peering(a, b);
  EXPECT_EQ(g.relation(a, b), Relation::kPeer);
  EXPECT_EQ(g.relation(b, a), Relation::kPeer);
}

TEST(AsGraph, RelationOfNonNeighborsIsEmpty) {
  AsGraph g;
  const Asn a = g.add_as(mk("a"));
  const Asn b = g.add_as(mk("b"));
  EXPECT_FALSE(g.relation(a, b).has_value());
  EXPECT_FALSE(g.adjacent(a, b));
}

TEST(AsGraph, DegreeCounts) {
  AsGraph g;
  const Asn a = g.add_as(mk("a"));
  const Asn b = g.add_as(mk("b"));
  const Asn c = g.add_as(mk("c"));
  const Asn d = g.add_as(mk("d"));
  g.add_transit(b, a);  // b customer of a
  g.add_transit(a, c);  // a customer of c
  g.add_peering(a, d);
  const auto deg = g.degree(a);
  EXPECT_EQ(deg.customers, 1u);
  EXPECT_EQ(deg.providers, 1u);
  EXPECT_EQ(deg.peers, 1u);
  EXPECT_EQ(deg.total(), 3u);
}

TEST(AsGraph, LinkFacilitiesPreserved) {
  AsGraph g;
  const Asn a = g.add_as(mk("a"));
  const Asn b = g.add_as(mk("b"));
  g.add_peering(a, b, {FacilityId(7)});
  ASSERT_EQ(g.links().size(), 1u);
  ASSERT_EQ(g.links()[0].facilities.size(), 1u);
  EXPECT_EQ(g.links()[0].facilities[0], FacilityId(7));
}

TEST(AsGraph, ToStringCoversAllEnums) {
  EXPECT_STREQ(to_string(AsType::kTier1), "tier1");
  EXPECT_STREQ(to_string(AsType::kHypergiant), "hypergiant");
  EXPECT_STREQ(to_string(PeeringPolicy::kOpen), "open");
  EXPECT_STREQ(to_string(TrafficProfile::kHeavyInbound), "heavy-inbound");
}

}  // namespace
}  // namespace itm::topology
