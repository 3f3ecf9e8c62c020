// Query-engine correctness: every answer served from the compiled snapshot
// must exactly equal the corresponding in-memory TrafficMap answer — that
// equality is the contract that makes `.itms` a faithful serving artifact.
#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "net/ordered.h"
#include "serve/lru_cache.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

namespace itm::serve {
namespace {

// Build once: tiny map -> snapshot bytes -> validated borrowed view (the
// exact production path of `itm serve`). The owned copy is only the
// expected-value side of the rollup test.
class QueryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = core::Scenario::generate(core::tiny_config(808)).release();
    core::MapBuilder builder(*scenario_);
    core::MapBuildOptions options;
    options.probe_rounds = 6;
    map_ = new core::TrafficMap(builder.build(options));
    std::ostringstream os;
    write_snapshot(*map_, *scenario_, os);
    bytes_ = new std::string(os.str());
    std::string error;
    auto view = borrow_snapshot(*bytes_, &error);
    ASSERT_TRUE(view.has_value()) << error;
    view_ = new SnapshotView(std::move(*view));
    snapshot_ = new Snapshot(*read_snapshot(*bytes_, &error));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete view_;
    delete bytes_;
    delete map_;
    delete scenario_;
  }
  static core::Scenario* scenario_;
  static core::TrafficMap* map_;
  static std::string* bytes_;
  static SnapshotView* view_;
  static Snapshot* snapshot_;
};

core::Scenario* QueryEngineTest::scenario_ = nullptr;
core::TrafficMap* QueryEngineTest::map_ = nullptr;
std::string* QueryEngineTest::bytes_ = nullptr;
SnapshotView* QueryEngineTest::view_ = nullptr;
Snapshot* QueryEngineTest::snapshot_ = nullptr;

TEST_F(QueryEngineTest, TotalActivityEqualsMapExactly) {
  const QueryEngine engine(*view_);
  EXPECT_EQ(engine.total_activity(), map_->total_activity());
}

TEST_F(QueryEngineTest, PerAsActivityEqualsMapExactly) {
  const QueryEngine engine(*view_);
  for (const auto& as : scenario_->topo().graph.ases()) {
    const auto answer = engine.as_answer(as.asn);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->activity, map_->activity.score(as.asn));
    EXPECT_EQ(answer->name, as.name);
    EXPECT_EQ(answer->country, as.country);
    const bool is_client =
        std::find(map_->client_ases.begin(), map_->client_ases.end(),
                  as.asn) != map_->client_ases.end();
    EXPECT_EQ(answer->is_client, is_client);
  }
  EXPECT_FALSE(engine.as_answer(Asn(1u << 30)).has_value());
}

TEST_F(QueryEngineTest, OutageImpactEqualsMapForEveryAs) {
  const QueryEngine engine(*view_);
  const auto& plan = scenario_->topo().addresses;
  for (const auto& as : scenario_->topo().graph.ases()) {
    const auto served = engine.outage(as.asn);
    ASSERT_TRUE(served.has_value());
    const auto expected = map_->outage_impact(as.asn, plan);
    EXPECT_EQ(served->activity_share, expected.activity_share)
        << "AS " << as.asn.value();
    EXPECT_EQ(served->client_prefixes, expected.client_prefixes)
        << "AS " << as.asn.value();
    EXPECT_EQ(served->servers_inside, expected.servers_inside)
        << "AS " << as.asn.value();
    EXPECT_EQ(served->services_served_from, expected.services_served_from)
        << "AS " << as.asn.value();
  }
}

TEST_F(QueryEngineTest, PointLookupFindsEveryClientPrefix) {
  const QueryEngine engine(*view_);
  const auto& plan = scenario_->topo().addresses;
  for (const Ipv4Prefix& prefix : map_->client_prefixes) {
    // Probe the base and the last address of each detected prefix.
    for (const auto addr : {prefix.base(), prefix.address_at(prefix.size() - 1)}) {
      const auto answer = engine.lookup(addr);
      ASSERT_TRUE(answer.client_prefix.has_value())
          << addr.to_string() << " not covered";
      EXPECT_EQ(*answer.client_prefix, prefix);
      EXPECT_EQ(answer.origin, plan.origin_of(prefix));
      if (answer.origin) {
        EXPECT_EQ(answer.activity, map_->activity.score(*answer.origin));
      }
    }
  }
}

TEST_F(QueryEngineTest, ServingEndpointsEqualUserMapping) {
  const QueryEngine engine(*view_);
  for (const auto service : net::sorted_keys(map_->user_mapping)) {
    const auto& sweep = map_->user_mapping.at(service);
    for (const auto& [prefix, front_end] : net::sorted_items(sweep)) {
      const auto answer = engine.lookup(prefix.base());
      const auto it = std::find_if(
          answer.serving.begin(), answer.serving.end(),
          [service](const auto& pair) { return pair.first == service; });
      ASSERT_NE(it, answer.serving.end())
          << "service " << service << " missing for " << prefix.to_string();
      EXPECT_EQ(it->second, front_end);
    }
  }
}

TEST_F(QueryEngineTest, LookupAgreesWithLinearScanOnArbitraryAddresses) {
  const QueryEngine engine(*view_);
  // Addresses around prefix boundaries plus far-off ones: the binary-search
  // lookup must agree with a brute-force scan of the map's prefix list.
  std::vector<Ipv4Addr> probes = {Ipv4Addr(0), Ipv4Addr(0xffffffffu),
                                  Ipv4Addr::from_octets(127, 0, 0, 1)};
  for (std::size_t i = 0; i < map_->client_prefixes.size(); i += 7) {
    const auto& p = map_->client_prefixes[i];
    probes.push_back(Ipv4Addr(p.base().bits() - 1));
    probes.push_back(
        Ipv4Addr(p.base().bits() + static_cast<std::uint32_t>(p.size())));
  }
  for (const auto addr : probes) {
    const auto answer = engine.lookup(addr);
    const auto covering = std::find_if(
        map_->client_prefixes.begin(), map_->client_prefixes.end(),
        [addr](const Ipv4Prefix& p) { return p.contains(addr); });
    if (covering == map_->client_prefixes.end()) {
      EXPECT_FALSE(answer.client_prefix.has_value()) << addr.to_string();
    } else {
      ASSERT_TRUE(answer.client_prefix.has_value()) << addr.to_string();
      EXPECT_EQ(*answer.client_prefix, *covering);
    }
  }
}

TEST_F(QueryEngineTest, ExactPrefixLookupRejectsNonMatchingLength) {
  const QueryEngine engine(*view_);
  ASSERT_FALSE(map_->client_prefixes.empty());
  const Ipv4Prefix known = map_->client_prefixes.front();
  EXPECT_TRUE(engine.lookup(known).client_prefix.has_value());
  const Ipv4Prefix wider(known.base(), known.length() - 1);
  EXPECT_FALSE(engine.lookup(wider).client_prefix.has_value());
}

TEST_F(QueryEngineTest, TopAsesMatchesActivityRanking) {
  const QueryEngine engine(*view_);
  std::vector<std::pair<Asn, double>> expected;
  for (const auto& [asn, score] : net::sorted_items(map_->activity.by_as)) {
    if (score > 0) expected.emplace_back(Asn(asn), score);
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (expected.size() > 10) expected.resize(10);
  EXPECT_EQ(engine.top_ases(10), expected);
}

TEST_F(QueryEngineTest, CountryRollupMatchesRecordOrderSum) {
  const QueryEngine engine(*view_);
  for (const auto& rec : snapshot_->countries) {
    const auto answer = engine.country(CountryId(rec.country));
    ASSERT_TRUE(answer.has_value());
    double expected = 0.0;
    std::size_t clients = 0;
    for (const auto& as : snapshot_->ases) {
      if (as.country != rec.country) continue;
      expected += as.activity;
      if (as.is_client()) ++clients;
    }
    EXPECT_EQ(answer->activity, expected);
    EXPECT_EQ(answer->client_ases, clients);
  }
  EXPECT_FALSE(engine.country(CountryId(1u << 30)).has_value());
}

TEST_F(QueryEngineTest, BatchProtocolIsDeterministicAndCached) {
  QueryEngine engine(*view_, 16);
  const std::string first = engine.execute("stats");
  const std::string second = engine.execute("stats");
  EXPECT_EQ(first, second);
  EXPECT_EQ(engine.cache_hits(), 1u);
  EXPECT_EQ(engine.queries_executed(), 2u);
  EXPECT_EQ(engine.execute("nonsense").rfind("error:", 0), 0u);
  EXPECT_EQ(engine.execute("lookup not-an-ip").rfind("error:", 0), 0u);
  EXPECT_EQ(engine.execute("as 99999999").rfind("error:", 0), 0u);
}

TEST_F(QueryEngineTest, CacheEvictionsAreCounted) {
  // Capacity 2 with three distinct cacheable queries: the third insert must
  // evict exactly one entry, and the counter feeds `itm serve`'s
  // serve.cache.evictions metric.
  QueryEngine engine(*view_, 2);
  engine.execute("stats");
  engine.execute("top-as 5");
  EXPECT_EQ(engine.cache_evictions(), 0u);
  engine.execute("top-as 7");
  EXPECT_EQ(engine.cache_evictions(), 1u);
  EXPECT_EQ(engine.cache_hits(), 0u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_TRUE(cache.get("a").has_value());  // a becomes most recent
  cache.put("c", 3);                        // evicts b
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.get("a"), 1);
  EXPECT_EQ(cache.get("c"), 3);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, ZeroCapacityDisablesCaching) {
  LruCache<int> cache(0);
  cache.put("a", 1);
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, PutUpdatesExistingKey) {
  LruCache<int> cache(2);
  cache.put("a", 1);
  cache.put("a", 7);
  EXPECT_EQ(cache.get("a"), 7);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace itm::serve
