#include "topology/as_table.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/rng.h"
#include "topology/generator.h"

namespace itm::topology {
namespace {

class AsTableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TopologyConfig config;
    config.geography.num_countries = 4;
    config.geography.cities_per_country = 4;
    config.num_tier1 = 4;
    config.num_transit = 10;
    config.num_access = 30;
    config.num_content = 12;
    config.num_hypergiants = 3;
    config.num_enterprise = 10;
    Rng rng(7);
    topo_ = new Topology(generate_topology(config, rng));
  }
  static void TearDownTestSuite() {
    delete topo_;
    topo_ = nullptr;
  }

  static Topology* topo_;
};

Topology* AsTableTest::topo_ = nullptr;

TEST_F(AsTableTest, ScalarColumnsMatchAsInfo) {
  const AsGraph& graph = topo_->graph;
  const AsTable& table = topo_->table;
  ASSERT_EQ(table.size(), graph.size());
  for (const auto& as : graph.ases()) {
    EXPECT_EQ(table.type(as.asn), as.type);
    EXPECT_EQ(table.country(as.asn), as.country);
    EXPECT_EQ(table.home_city(as.asn), as.home_city);
    EXPECT_EQ(table.policy(as.asn), as.policy);
    EXPECT_EQ(table.profile(as.asn), as.profile);
    EXPECT_EQ(table.size_factor(as.asn), as.size_factor);
    EXPECT_EQ(table.name(as.asn), as.name);
  }
}

TEST_F(AsTableTest, StringTableOrderIsAsNamesThenCountries) {
  // The snapshot writer interns AS names in dense ASN order, then country
  // names; the topology table must reproduce exactly that order so the
  // serve layer can reuse it (layout equivalence depends on this).
  const AsTable& table = topo_->table;
  net::StringTable expected;
  for (const auto& as : topo_->graph.ases()) expected.intern(as.name);
  for (const auto& c : topo_->geography.countries()) expected.intern(c.name);
  ASSERT_EQ(table.strings().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(table.strings().at(static_cast<std::uint32_t>(i)),
              expected.at(static_cast<std::uint32_t>(i)));
  }
  for (const auto& c : topo_->geography.countries()) {
    EXPECT_EQ(table.strings().at(table.country_name_ref(c.id)), c.name);
  }
}

TEST_F(AsTableTest, CsrMatchesPerAsVectors) {
  const AsGraph& graph = topo_->graph;
  const AsTable& table = topo_->table;
  for (const auto& as : graph.ases()) {
    const auto& neighbors = graph.neighbors(as.asn);
    ASSERT_EQ(table.degree(as.asn), neighbors.size());
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const auto view = table.neighbor(as.asn, i);
      EXPECT_EQ(view.asn, neighbors[i].asn);
      EXPECT_EQ(view.relation, neighbors[i].relation);
      EXPECT_EQ(view.link_index, neighbors[i].link_index);
    }
    const auto cities = table.presence_cities(as.asn);
    ASSERT_EQ(cities.size(), as.presence_cities.size());
    EXPECT_TRUE(std::equal(cities.begin(), cities.end(),
                           as.presence_cities.begin()));
    const auto facilities = table.facilities(as.asn);
    ASSERT_EQ(facilities.size(), as.facilities.size());
    EXPECT_TRUE(
        std::equal(facilities.begin(), facilities.end(), as.facilities.begin()));
  }
}

TEST_F(AsTableTest, ConeSizesMatchGraphBfs) {
  for (const auto& as : topo_->graph.ases()) {
    EXPECT_EQ(topo_->table.cone_size(as.asn),
              topo_->graph.customer_cone_size(as.asn))
        << "asn " << as.asn;
  }
}

TEST_F(AsTableTest, RanksAreProviderMonotone) {
  const AsGraph& graph = topo_->graph;
  const AsTable& table = topo_->table;
  for (const auto& as : graph.ases()) {
    const auto degree = graph.degree(as.asn);
    std::uint32_t max_customer_rank = 0;
    bool has_customer = false;
    for (const auto& nb : graph.neighbors(as.asn)) {
      if (nb.relation != Relation::kCustomer) continue;
      has_customer = true;
      max_customer_rank = std::max(max_customer_rank, table.rank(nb.asn));
    }
    if (!has_customer) {
      EXPECT_EQ(table.rank(as.asn), 0u) << "asn " << as.asn;
      EXPECT_EQ(degree.customers, 0u);
    } else {
      EXPECT_EQ(table.rank(as.asn), max_customer_rank + 1)
          << "asn " << as.asn;
    }
  }
}

TEST_F(AsTableTest, RankBucketsPartitionAllAses) {
  const AsTable& table = topo_->table;
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < table.num_ranks(); ++r) {
    std::uint32_t prev = 0;
    bool first = true;
    for (const std::uint32_t asn : table.ases_at_rank(r)) {
      EXPECT_EQ(table.rank(Asn(asn)), r);
      if (!first) EXPECT_GT(asn, prev);  // ascending ASN within a rank
      prev = asn;
      first = false;
      ++total;
    }
  }
  EXPECT_EQ(total, table.size());
}

TEST_F(AsTableTest, MemoryAccountingIsNonTrivial) {
  const auto& table = topo_->table;
  // The total covers the interned strings plus at least one byte per AS of
  // scalar columns; bench_diff.py holds the measured bytes/AS in a band.
  EXPECT_GT(table.memory_bytes(),
            table.strings().memory_bytes() + table.size());
}

}  // namespace
}  // namespace itm::topology
