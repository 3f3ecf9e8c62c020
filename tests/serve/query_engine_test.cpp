// Query-engine correctness: every answer served from the compiled snapshot
// must exactly equal the corresponding in-memory TrafficMap answer — that
// equality is the contract that makes `.itms` a faithful serving artifact.
#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "net/executor.h"
#include "net/ordered.h"
#include "obs/quantile.h"
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

// Sweeps that cover different /24s per service: a lookup cannot reuse one
// service's entry index for the next, and must still find every entry.
TEST_F(QueryEngineTest, ServingIsExactWhenServicesCoverDifferentPrefixes) {
  Snapshot thinned = *snapshot_;
  ASSERT_GE(thinned.mappings.size(), 2u);
  for (std::size_t m = 0; m < thinned.mappings.size(); ++m) {
    auto& entries = thinned.mappings[m].entries;
    std::vector<MappingEntry> kept;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      if ((e + m) % (m + 2) != 0) kept.push_back(entries[e]);
    }
    entries = std::move(kept);
  }
  std::ostringstream os;
  write_snapshot(thinned, os);
  const std::string bytes = os.str();
  std::string error;
  const auto view = borrow_snapshot(bytes, &error);
  ASSERT_TRUE(view.has_value()) << error;
  const QueryEngine engine(*view);
  const auto& all = snapshot_->mappings.front().entries;
  for (std::size_t e = 0; e < all.size(); e += 3) {
    const Ipv4Addr address(all[e].prefix_base + 1);
    std::vector<std::pair<std::uint32_t, Ipv4Addr>> expected;
    for (const ServiceMapping& mapping : thinned.mappings) {
      for (const MappingEntry& entry : mapping.entries) {
        if (entry.prefix_base == all[e].prefix_base &&
            entry.prefix_length == 24) {
          expected.emplace_back(mapping.service, Ipv4Addr(entry.address));
        }
      }
    }
    ASSERT_EQ(engine.lookup(address).serving, expected)
        << address.to_string();
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
  const QueryEngine engine(*view_, 16);
  obs::QuantileHistogram latency;
  std::vector<std::string> lines{"stats", "stats"};
  engine.answer_batch(lines, net::Executor::serial(), latency);
  EXPECT_EQ(lines[0], lines[1]);
  EXPECT_EQ(lines[0], engine.answer("stats"));
  EXPECT_EQ(engine.cache_counts().hits, 1u);
  EXPECT_EQ(latency.count(), 2u);
  std::vector<std::string> errors{"nonsense", "lookup not-an-ip",
                                  "as 99999999"};
  engine.answer_batch(errors, net::Executor::serial(), latency);
  for (const std::string& reply : errors) {
    EXPECT_EQ(reply.rfind("error:", 0), 0u) << reply;
  }
}

TEST_F(QueryEngineTest, OutOfRangeNumbersAreErrorsNotOtherKeys) {
  // Each number below wraps, modulo 2^32 or 2^64, to a key the fixture
  // holds (AS 14, country 0, a count of 1); it must be refused, not
  // answered for that key.
  const QueryEngine engine(*view_);
  ASSERT_TRUE(engine.as_answer(Asn(14)).has_value());
  ASSERT_TRUE(engine.country(CountryId(0)).has_value());
  EXPECT_EQ(engine.answer("outage 4294967310"), "error: bad asn '4294967310'");
  EXPECT_EQ(engine.answer("as 4294967310"), "error: bad asn '4294967310'");
  EXPECT_EQ(engine.answer("country 4294967296"),
            "error: bad country '4294967296'");
  EXPECT_EQ(engine.answer("top-as 18446744073709551617"),
            "error: bad count '18446744073709551617'");
  EXPECT_EQ(engine.answer("top-country 99999999999999999999"),
            "error: bad count '99999999999999999999'");
  // The largest in-range values still parse.
  EXPECT_EQ(engine.answer("as 4294967295"), "error: unknown as 4294967295");
  EXPECT_EQ(engine.answer("top-as 18446744073709551615")
                .rfind("top-as 18446744073709551615 = ", 0),
            0u);
}

// The protocol splits a line on the bytes `std::istream >> std::string`
// skips in the C locale: space, \t, \n, \v, \f and \r. These replies pin
// each separator over the seed-808 fixture, and the echo rules: a point
// lookup repeats its raw token, `as` and `top-*` the parsed number, an
// unknown query the whole line.
const std::string kLookup =
    "lookup 1.0.64.1 prefix=1.0.64.0/24 as=14 name=Orange "
    "activity=1.33509893 serving=0@1.4.128.2,1@1.0.90.18,2@1.5.0.4,"
    "3@1.4.128.2,4@1.4.192.11,5@1.5.0.2";
const std::string kStats =
    "stats ases=69 client_ases=43 client_prefixes=361 endpoints=223 "
    "services=6 recommended_links=259 observed_links=108 "
    "addresses_probed=209408 total_activity=41.94213652 seed=808";

TEST_F(QueryEngineTest, TabSeparatedTokensAnswerLikeSpaces) {
  const QueryEngine engine(*view_);
  EXPECT_EQ(engine.answer("lookup\t1.0.64.1"), kLookup);
  EXPECT_EQ(engine.answer("as\t14"),
            "as 14 name=Orange country=0 type=access activity=1.33509893 "
            "client=1 endpoints=6");
  EXPECT_EQ(engine.answer("lookup\t1.2.3"), "error: bad address '1.2.3'");
}

TEST_F(QueryEngineTest, TrailingCarriageReturnIsABlank) {
  const QueryEngine engine(*view_);
  EXPECT_EQ(engine.answer("lookup 1.0.64.1\r"), kLookup);
  EXPECT_EQ(engine.answer("stats\r"), kStats);
  EXPECT_EQ(engine.answer("prefix 1.0.64.0/23\r"),
            "prefix 1.0.64.0/23 prefix=none as=none activity=0 "
            "serving=0@1.4.128.2,1@1.0.90.18,2@1.5.0.4,3@1.4.128.2,"
            "4@1.4.192.11,5@1.5.0.2");
  EXPECT_EQ(engine.answer("nonsense\r"), "error: unknown query 'nonsense\r'");
}

TEST_F(QueryEngineTest, VerticalTabAndFormFeedSeparateTokens) {
  const QueryEngine engine(*view_);
  EXPECT_EQ(engine.answer("top-as\v3"),
            "top-as 3 = 56:8.592180511,31:2.59691159,17:2.427698096");
  EXPECT_EQ(engine.answer("country\f0"),
            "country 0 name=Francia client_ases=14 activity=18.4316638 "
            "endpoints=59");
  EXPECT_EQ(engine.answer("outage\v\f14"),
            "outage 14 activity_share=0.03183192467 client_prefixes=25 "
            "servers_inside=6 services=1");
  EXPECT_EQ(engine.answer("as\v14\fextra"),
            "error: unknown query 'as\v14\fextra'");
}

TEST_F(QueryEngineTest, LeadingAndTrailingBlanksAreIgnored) {
  const QueryEngine engine(*view_);
  EXPECT_EQ(engine.answer("  stats  "), kStats);
  EXPECT_EQ(engine.answer("\t lookup 1.0.64.1 \t"), kLookup);
  EXPECT_EQ(engine.answer(" \t\n\v\f\r"), "error: empty query");
  // Bytes outside the C locale's blanks belong to a token.
  EXPECT_EQ(engine.answer("stats\xa0"), "error: unknown query 'stats\xa0'");
  EXPECT_EQ(engine.answer(" bogus line "),
            "error: unknown query ' bogus line '");
}

TEST_F(QueryEngineTest, TopAsEchoesTheParsedCount) {
  const QueryEngine engine(*view_);
  EXPECT_EQ(engine.answer("top-as 007"),
            "top-as 7 = 56:8.592180511,31:2.59691159,17:2.427698096,"
            "27:2.105049187,23:1.943647659,8:1.731947751,13:1.406439841");
  EXPECT_EQ(engine.answer("top-country 007"),
            "top-country 7 = 0:18.4316638,2:9.566473599,3:8.258986454,"
            "1:5.685012671");
  EXPECT_EQ(engine.answer("top-as 000"), "error: bad count '000'");
  EXPECT_EQ(engine.answer("as 007"),
            "as 7 name=TR-Francia-3 country=0 type=transit "
            "activity=0.7810142638 client=1 endpoints=0");
}

TEST_F(QueryEngineTest, CacheEvictionsAreCounted) {
  // Capacity 2 with three distinct cacheable queries: the third insert must
  // evict exactly one entry, and the counter feeds the
  // serve.cache.evictions metric.
  const QueryEngine engine(*view_, 2);
  obs::QuantileHistogram latency;
  const auto answer_one = [&](const std::string& line) {
    std::vector<std::string> lines{line};
    engine.answer_batch(lines, net::Executor::serial(), latency);
  };
  answer_one("stats");
  answer_one("top-as 5");
  EXPECT_EQ(engine.cache_counts().evictions, 0u);
  answer_one("top-as 7");
  EXPECT_EQ(engine.cache_counts().evictions, 1u);
  EXPECT_EQ(engine.cache_counts().hits, 0u);
}

TEST_F(QueryEngineTest, CacheCountsDoNotDependOnBatching) {
  // A stream with repeats inside and across batches, through a cache small
  // enough to evict: one line at a time, in batches of 3 on one thread,
  // and in one batch on four threads must give the same answers and the
  // same counts as a plain LRU fed the lines in order.
  std::vector<std::string> stream;
  for (std::size_t i = 0; i < 60; ++i) {
    stream.push_back("top-as " + std::to_string(1 + (i * i) % 7));
    if (i % 4 == 0) stream.push_back("stats");
  }
  LruCache<int> model(4);
  for (const std::string& line : stream) {
    if (!model.get(line)) model.put(line, 0);
  }
  net::Executor four(4);
  const std::vector<std::pair<std::size_t, net::Executor*>> runs{
      {1, &net::Executor::serial()},
      {3, &net::Executor::serial()},
      {stream.size(), &four}};
  for (const auto& [batch_size, executor] : runs) {
    const QueryEngine engine(*view_, 4);
    obs::QuantileHistogram latency;
    for (std::size_t begin = 0; begin < stream.size(); begin += batch_size) {
      const std::size_t end = std::min(stream.size(), begin + batch_size);
      std::vector<std::string> lines(stream.begin() + begin,
                                     stream.begin() + end);
      engine.answer_batch(lines, *executor, latency);
      for (std::size_t i = begin; i < end; ++i) {
        ASSERT_EQ(lines[i - begin], engine.answer(stream[i]))
            << "batch size " << batch_size << ", line " << i;
      }
    }
    EXPECT_EQ(engine.cache_counts().hits, model.hits()) << batch_size;
    EXPECT_EQ(engine.cache_counts().misses, model.misses()) << batch_size;
    EXPECT_EQ(engine.cache_counts().evictions, model.evictions())
        << batch_size;
    EXPECT_EQ(latency.count(), stream.size());
  }
  EXPECT_GT(model.hits(), 0u);
  EXPECT_GT(model.evictions(), 0u);
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
