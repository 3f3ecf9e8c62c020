// `ctest -L scale`: the medium-tier smoke — generates the pinned medium
// world (>= 10k ASes, >= 100k routable /24s), runs the full measurement
// pipeline through the tier's build options, and checks the invariants that
// must survive scale: address-plan disjointness, activity mass
// conservation, an acyclic customer->provider graph, and snapshot
// self-validation.
// This is the one test where the Internet-scale substrate actually carries
// Internet-shaped cardinalities; everything is built once and shared across
// the suite (the build is the expensive part, the checks are cheap).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <sstream>

#include "core/scale.h"
#include "core/scenario.h"
#include "core/traffic_map.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "../topology/provider_dag.h"

namespace itm {
namespace {

class ScaleSmoke : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ =
        core::Scenario::generate(core::tier_config(core::ScaleTier::kMedium))
            .release();
    core::MapBuilder builder(*scenario_);
    map_ = new core::TrafficMap(
        builder.build(core::tier_build_options(core::ScaleTier::kMedium)));
  }

  static void TearDownTestSuite() {
    delete map_;
    map_ = nullptr;
    delete scenario_;
    scenario_ = nullptr;
  }

  static core::Scenario* scenario_;
  static core::TrafficMap* map_;
};

core::Scenario* ScaleSmoke::scenario_ = nullptr;
core::TrafficMap* ScaleSmoke::map_ = nullptr;

TEST_F(ScaleSmoke, SubstrateMeetsTierFloor) {
  const auto& topo = scenario_->topo();
  EXPECT_GE(topo.graph.size(), 10'000u);
  EXPECT_GE(topo.addresses.routable_slash24s().size(), 100'000u);
}

TEST_F(ScaleSmoke, AddressAggregatesAreDisjointAndResolvable) {
  const auto& topo = scenario_->topo();
  std::vector<Ipv4Prefix> aggregates;
  aggregates.reserve(topo.graph.size());
  for (const auto& as : topo.graph.ases()) {
    aggregates.push_back(topo.addresses.of(as.asn).aggregate);
  }
  std::sort(aggregates.begin(), aggregates.end(),
            [](const Ipv4Prefix& a, const Ipv4Prefix& b) {
              return a.base().bits() < b.base().bits();
            });
  for (std::size_t i = 1; i < aggregates.size(); ++i) {
    const auto& prev = aggregates[i - 1];
    // No overlap: the next aggregate starts at or after the previous end.
    EXPECT_GE(aggregates[i].base().bits(), prev.base().bits() + prev.size())
        << "aggregate " << aggregates[i].to_string() << " overlaps "
        << prev.to_string();
  }
  // Every routable /24 resolves to exactly the AS whose aggregate covers
  // it (sampled: the full sweep is 200k lookups — cheap, but the point is
  // the trie, so a stride keeps the failure output readable).
  const auto routable = topo.addresses.routable_slash24s();
  for (std::size_t i = 0; i < routable.size(); i += 97) {
    const auto origin = topo.addresses.origin_of(routable[i]);
    ASSERT_TRUE(origin.has_value()) << routable[i].to_string();
    const auto& addressing = topo.addresses.of(*origin);
    EXPECT_TRUE(addressing.aggregate.contains(routable[i].base()));
  }
}

TEST_F(ScaleSmoke, ActivityMassIsConserved) {
  // Ground truth: per-prefix activity sums to the user base total, and the
  // per-AS aggregate column agrees with the same sum.
  const auto& users = scenario_->users();
  double prefix_sum = 0;
  // all() is an ordered span (local binding dodges cdn/tls.h's unordered
  // all() in the linter's name table).
  const auto user_prefixes = users.all();
  for (const auto& up : user_prefixes) prefix_sum += up.activity;
  EXPECT_NEAR(prefix_sum, users.total_activity(),
              users.total_activity() * 1e-9);
  double as_sum = 0;
  for (const auto& as : scenario_->topo().graph.ases()) {
    as_sum += users.as_activity(as.asn);
  }
  EXPECT_NEAR(as_sum, users.total_activity(), users.total_activity() * 1e-9);

  // Map estimate: the total is exactly the sum of its per-AS scores (no
  // mass invented or lost between the estimate and its consumers).
  double score_sum = 0;
  for (const auto& as : scenario_->topo().graph.ases()) {
    score_sum += map_->activity.score(as.asn);
  }
  EXPECT_GT(map_->total_activity(), 0.0);
  EXPECT_NEAR(score_sum, map_->total_activity(),
              map_->total_activity() * 1e-6);
}

TEST_F(ScaleSmoke, CustomerProviderGraphIsAcyclicAtScale) {
  const auto& graph = scenario_->topo().graph;
  EXPECT_EQ(topology::kahn_ordered_ases(graph), graph.size());
}

TEST_F(ScaleSmoke, MapDetectedMeaningfulCoverage) {
  EXPECT_GE(map_->client_prefixes.size(), 10'000u);
  EXPECT_GE(map_->client_ases.size(), 1'000u);
  EXPECT_FALSE(map_->tls.endpoints.empty());
  EXPECT_GT(map_->public_view.link_count(), 0u);
}

TEST_F(ScaleSmoke, SnapshotSelfValidatesAndRoundTrips) {
  std::ostringstream blob_out;
  serve::write_snapshot(*map_, *scenario_, blob_out);
  const std::string blob = blob_out.str();
  std::string error;
  const auto snapshot = serve::read_snapshot(std::string_view(blob), &error);
  ASSERT_TRUE(snapshot) << error;
  EXPECT_EQ(snapshot->ases.size(), scenario_->topo().graph.size());
  std::ostringstream blob_again;
  serve::write_snapshot(*snapshot, blob_again);
  EXPECT_EQ(blob_again.str(), blob);
}

}  // namespace
}  // namespace itm
