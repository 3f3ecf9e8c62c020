#include <gtest/gtest.h>

#include <algorithm>

#include "../test_scenario.h"
#include "core/whatif.h"

namespace itm::core {
namespace {

using itm::testing::shared_tiny_scenario;

TEST(LinkFailure, BaselineHasNoUnreachableBytes) {
  auto& s = shared_tiny_scenario();
  EXPECT_DOUBLE_EQ(s.matrix().unreachable_bytes(), 0.0);
}

TEST(LinkFailure, CutPeeringRedistributesLoad) {
  auto& s = shared_tiny_scenario();
  // Find a loaded peering link below the tier-1 mesh (tier-1 mesh links
  // are irreplaceable under valley-free routing: cutting one genuinely
  // disconnects transit-free pairs).
  std::size_t target = s.topo().graph.links().size();
  for (std::size_t li = 0; li < s.topo().graph.links().size(); ++li) {
    const auto& link = s.topo().graph.links()[li];
    if (link.a_to_b != topology::Relation::kPeer) continue;
    if (s.topo().graph.info(link.a).type == topology::AsType::kTier1 ||
        s.topo().graph.info(link.b).type == topology::AsType::kTier1) {
      continue;
    }
    if (s.matrix().link_bytes()[li] > 0) {
      target = li;
      break;
    }
  }
  ASSERT_LT(target, s.topo().graph.links().size());
  const auto report = simulate_link_failure(s, target);
  EXPECT_GT(report.link_bytes_before, 0.0);
  // The cut link's delta is exactly its previous load, negated.
  EXPECT_DOUBLE_EQ(report.link_delta[target], -report.link_bytes_before);
  // A redundant mesh: nothing disconnects, load moves elsewhere.
  EXPECT_NEAR(report.bytes_disconnected, 0.0, 1e-9);
  EXPECT_GT(report.link_load_shifted, 0.0);
  const auto top = report.top_gaining_links(s.topo().graph, 3);
  for (const auto& shift : top) {
    EXPECT_GT(shift.delta_bytes, 0.0);
  }
}

TEST(LinkFailure, CutSingleHomedTransitDisconnects) {
  auto& s = shared_tiny_scenario();
  // Find an access AS with exactly one provider and no peers: cutting its
  // only transit link strands its clients.
  for (const Asn a : s.topo().accesses) {
    const auto degree = s.topo().graph.degree(a);
    if (degree.providers != 1 || degree.peers != 0) continue;
    std::size_t target = s.topo().graph.links().size();
    for (std::size_t li = 0; li < s.topo().graph.links().size(); ++li) {
      const auto& link = s.topo().graph.links()[li];
      if ((link.a == a || link.b == a) &&
          link.a_to_b == topology::Relation::kCustomer) {
        target = li;
        break;
      }
    }
    ASSERT_LT(target, s.topo().graph.links().size());
    const auto report = simulate_link_failure(s, target);
    // All of this AS's externally-served bytes become unreachable (its
    // off-net-served bytes, if any, survive intra-AS).
    EXPECT_GT(report.bytes_disconnected, 0.0);
    EXPECT_LE(report.bytes_disconnected,
              s.matrix().as_client_bytes(a) / s.matrix().total_bytes() + 1e-9);
    return;
  }
  GTEST_SKIP() << "no single-homed eyeball in tiny scenario";
}

TEST(LinkFailure, ImpactIsHeavyTailed) {
  auto& s = shared_tiny_scenario();
  // The paper's point about congested interconnects: most links carry
  // almost nothing, a few carry a lot. Verify via the baseline loads that
  // what-if would report (cheap proxy for running N simulations).
  std::vector<double> loads(s.matrix().link_bytes().begin(),
                            s.matrix().link_bytes().end());
  ASSERT_FALSE(loads.empty());
  std::sort(loads.begin(), loads.end());
  const double median = loads[loads.size() / 2];
  const double max_load = loads.back();
  // The busiest link dwarfs the median one.
  EXPECT_GT(max_load, 10.0 * std::max(median, 1.0));
}

}  // namespace
}  // namespace itm::core
