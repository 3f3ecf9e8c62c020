#include "core/whatif.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "../test_scenario.h"

namespace itm::core {
namespace {

using itm::testing::shared_tiny_scenario;

TEST(WhatIf, AccessFailureLosesItsClientBytes) {
  auto& s = shared_tiny_scenario();
  const Asn failed = s.topo().accesses_in(CountryId(0)).front();
  const auto report = simulate_as_failure(s, failed);
  EXPECT_EQ(report.failed, failed);
  EXPECT_NEAR(report.client_bytes_lost,
              s.matrix().as_client_bytes(failed) / s.matrix().total_bytes(),
              1e-9);
  EXPECT_GT(report.client_bytes_lost, 0.0);
  // Surviving traffic = baseline minus the failed AS's client bytes (access
  // networks host no origins, so no service bytes vanish).
  EXPECT_DOUBLE_EQ(report.service_bytes_lost, 0.0);
  EXPECT_NEAR(report.surviving_bytes,
              report.baseline_bytes * (1.0 - report.client_bytes_lost),
              report.baseline_bytes * 1e-6);
}

TEST(WhatIf, ContentFailureLosesItsServices) {
  auto& s = shared_tiny_scenario();
  // Find a content AS hosting at least one long-tail service.
  for (const Asn content : s.topo().contents) {
    double expected = 0;
    for (const auto& svc : s.catalog().services()) {
      if (svc.origin_as == content && !svc.hypergiant) {
        expected += s.matrix().service_bytes(svc.id);
      }
    }
    if (expected <= 0) continue;
    const auto report = simulate_as_failure(s, content);
    EXPECT_NEAR(report.service_bytes_lost,
                expected / s.matrix().total_bytes(), 1e-9);
    EXPECT_DOUBLE_EQ(report.client_bytes_lost, 0.0);
    return;
  }
  GTEST_SKIP() << "no content AS with services in tiny scenario";
}

TEST(WhatIf, TransitFailureShiftsLoadNotVolume) {
  auto& s = shared_tiny_scenario();
  const Asn transit = s.topo().transits.front();
  const auto report = simulate_as_failure(s, transit);
  EXPECT_DOUBLE_EQ(report.client_bytes_lost, 0.0);
  // No clients or origins are inside a transit AS, but customers that were
  // single-homed behind it lose connectivity, so surviving traffic can only
  // shrink — and most of it survives in a redundantly connected mesh.
  EXPECT_LE(report.surviving_bytes, report.baseline_bytes);
  EXPECT_GT(report.surviving_bytes, report.baseline_bytes * 0.5);
  // Some load moved to other links.
  EXPECT_GT(report.link_load_shifted, 0.0);
  // The failed AS's own links all went to zero.
  for (std::size_t li = 0; li < s.topo().graph.links().size(); ++li) {
    const auto& link = s.topo().graph.links()[li];
    if (link.a == transit || link.b == transit) {
      EXPECT_LE(report.link_delta[li], 0.0);
    }
  }
}

TEST(WhatIf, TopGainingLinksAreSorted) {
  auto& s = shared_tiny_scenario();
  const auto report = simulate_as_failure(s, s.topo().transits.front());
  const auto top = report.top_gaining_links(s.topo().graph, 5);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].delta_bytes, top[i].delta_bytes);
  }
  for (const auto& shift : top) {
    EXPECT_GT(shift.delta_bytes, 0.0);
    EXPECT_NE(shift.a, report.failed);
    EXPECT_NE(shift.b, report.failed);
  }
}

TEST(WhatIf, OffnetDisplacementOnlyWhenHostFails) {
  auto& s = shared_tiny_scenario();
  // An AS hosting an off-net reports displaced off-net bytes; one without
  // reports zero.
  bool tested_host = false, tested_nonhost = false;
  for (const Asn a : s.topo().accesses) {
    bool hosts = false;
    for (const auto& hg : s.deployment().hypergiants()) {
      if (s.deployment().offnet_in(hg.id, a) != nullptr) hosts = true;
    }
    if (hosts && !tested_host) {
      const auto report = simulate_as_failure(s, a);
      EXPECT_GT(report.offnet_bytes_displaced, 0.0);
      tested_host = true;
    }
    if (!hosts && !tested_nonhost) {
      const auto report = simulate_as_failure(s, a);
      EXPECT_DOUBLE_EQ(report.offnet_bytes_displaced, 0.0);
      tested_nonhost = true;
    }
    if (tested_host && tested_nonhost) break;
  }
  EXPECT_TRUE(tested_host);
}

TEST(WhatIf, DeploymentWithoutAsDropsOnlyItsPops) {
  auto& s = shared_tiny_scenario();
  // Use an access AS hosting an off-net.
  for (const Asn a : s.topo().accesses) {
    std::size_t hosted = 0;
    for (const auto& pop : s.deployment().pops()) {
      if (pop.asn == a) ++hosted;
    }
    if (hosted == 0) continue;
    const auto filtered = s.deployment().without_as(a);
    EXPECT_EQ(filtered.pops().size(), s.deployment().pops().size() - hosted);
    for (const auto& pop : filtered.pops()) {
      EXPECT_NE(pop.asn, a);
      // Ids are dense and self-consistent.
      EXPECT_EQ(filtered.pop(pop.id).city, pop.city);
    }
    for (const auto& fe : filtered.front_ends()) {
      EXPECT_NE(filtered.pop(fe.pop).asn, a);
    }
    return;
  }
  GTEST_SKIP();
}

TEST(WhatIf, UserBaseWithoutAs) {
  auto& s = shared_tiny_scenario();
  const Asn excluded = s.topo().accesses.front();
  const auto masked = s.users().without_as(excluded);
  EXPECT_DOUBLE_EQ(masked.as_users(excluded), 0.0);
  EXPECT_NEAR(masked.total_users(),
              s.users().total_users() - s.users().as_users(excluded), 1e-6);
  // Other ASes unchanged.
  const Asn other = s.topo().accesses.back();
  ASSERT_NE(other, excluded);
  EXPECT_DOUBLE_EQ(masked.as_users(other), s.users().as_users(other));
  // Index rebuilt correctly. (all() is an ordered span; the local binding
  // keeps it clear of the unordered all() in cdn/tls.h.)
  const auto masked_prefixes = masked.all();
  for (const auto& up : masked_prefixes) {
    EXPECT_EQ(masked.find(up.prefix)->prefix, up.prefix);
  }
}


// The pinned simulations: every field of the what-if reports for a few ASes
// and links of the tiny scenario, printed to 17 significant digits (exact
// for a double), with an FNV-1a hash over the bit patterns of link_delta and
// the top three gaining links. A refactor of whatif.cpp must leave these
// strings alone; a change to them is a model change.
std::string pin_links(const std::vector<double>& link_delta,
                      const std::vector<WhatIfReport::LinkShift>& top) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const double delta : link_delta) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &delta, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  std::string out = "links " + std::to_string(link_delta.size()) + " hash " +
                    std::to_string(hash) + " top";
  for (const auto& shift : top) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " %u-%u:%.17g", shift.a.value(),
                  shift.b.value(), shift.delta_bytes);
    out += buf;
  }
  return out;
}

std::string pin(const WhatIfReport& r, const topology::AsGraph& graph) {
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "as %u client %.17g service %.17g offnet %.17g shifted %.17g "
                "baseline %.17g surviving %.17g ",
                r.failed.value(), r.client_bytes_lost, r.service_bytes_lost,
                r.offnet_bytes_displaced, r.link_load_shifted,
                r.baseline_bytes, r.surviving_bytes);
  return buf + pin_links(r.link_delta, r.top_gaining_links(graph, 3));
}

std::string pin(const LinkFailureReport& r, const topology::AsGraph& graph) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "link %u-%u before %.17g disconnected %.17g shifted %.17g ",
                r.a.value(), r.b.value(), r.link_bytes_before,
                r.bytes_disconnected, r.link_load_shifted);
  return buf + pin_links(r.link_delta, r.top_gaining_links(graph, 3));
}

TEST(WhatIfPin, AsFailureReports) {
  auto& s = shared_tiny_scenario();
  const auto& topo = s.topo();
  const std::vector<Asn> failed = {
      topo.accesses_in(CountryId(0)).front(), topo.accesses.back(),
      topo.contents.front(), topo.transits.front(), topo.tier1s.front(),
      topo.enterprises.front()};
  const std::vector<std::string> expected = {
      "as 14 client 0.085090187500359321 service 0 offnet "
      "0.011218070260850142 shifted 0 baseline 70931533595943.859 "
      "surviving 64895956102577.055 links 219 hash "
      "17540181918288751591 top",
      "as 43 client 0.00113016302481348 service 0 offnet 0 shifted "
      "0 baseline 70931533595943.859 surviving 70851369399380.375 "
      "links 219 hash 13153511850403633104 top",
      "as 44 client 0 service 0.0049779092525581133 offnet 0 "
      "shifted 0 baseline 70931533595943.859 surviving "
      "70578442858558.469 links 219 hash 14145634832080995924 top",
      "as 4 client 0 service 0 offnet 0 shifted "
      "0.058601166058454168 baseline 70931533595943.859 surviving "
      "70060032430465.453 links 219 hash 13955763203339855034 top "
      "51-9:965922310070.04077 9-0:805257898464.35352 "
      "0-1:549941061045.64343",
      "as 0 client 0 service 0 offnet 0 shifted "
      "0.034610618182481061 baseline 70931533595943.859 surviving "
      "69573864302527.805 links 219 hash 17881419460842913164 top "
      "9-3:1548021505150.1089 57-3:735236801924.70117 "
      "1-3:643890002813.99731",
      "as 59 client 0 service 0 offnet 0 shifted 0 baseline "
      "70931533595943.859 surviving 70931533595943.859 links 219 "
      "hash 1358221564262330501 top",
  };
  ASSERT_EQ(failed.size(), expected.size());
  for (std::size_t i = 0; i < failed.size(); ++i) {
    EXPECT_EQ(pin(simulate_as_failure(s, failed[i]), topo.graph),
              expected[i]);
  }
}

TEST(WhatIfPin, LinkFailureReports) {
  auto& s = shared_tiny_scenario();
  const auto& graph = s.topo().graph;
  const auto loads = s.matrix().link_bytes();
  // The first link, one a third of the way in, the busiest link and the
  // first loaded peering below the tier-1 mesh.
  std::vector<std::size_t> cut = {
      0, loads.size() / 3,
      static_cast<std::size_t>(std::max_element(loads.begin(), loads.end()) -
                               loads.begin())};
  for (std::size_t li = 0; li < graph.links().size(); ++li) {
    const auto& link = graph.links()[li];
    if (link.a_to_b == topology::Relation::kPeer && loads[li] > 0 &&
        graph.info(link.a).type != topology::AsType::kTier1 &&
        graph.info(link.b).type != topology::AsType::kTier1) {
      cut.push_back(li);
      break;
    }
  }
  const std::vector<std::string> expected = {
      "link 0-1 before 865811028190.10217 disconnected "
      "0.0015225747068662275 shifted 0.016230039708839589 links 219 "
      "hash 1181425301593321992 top 9-3:566907148082.83643 "
      "1-3:566907148082.83618 0-2:113402046023.11945",
      "link 42-4 before 614305808040.49475 disconnected "
      "0.0086605459786029942 shifted 0 links 219 hash "
      "1562387879099311534 top",
      "link 7-3 before 2992814725169.6978 disconnected 0 shifted "
      "0.09220761183141811 links 219 hash 1822935239018361888 top "
      "12-2:1848955398949.2869 57-2:1500328435760.7922 "
      "15-12:1019543514772.9519",
      "link 14-47 before 33610221644.90818 disconnected 0 shifted "
      "0.0017402078480631439 links 219 hash 4963247830098426 top "
      "14-5:33610221644.908997 0-1:33610221644.908081 "
      "47-13:33610221644.908081",
  };
  ASSERT_EQ(cut.size(), expected.size());
  for (std::size_t i = 0; i < cut.size(); ++i) {
    EXPECT_EQ(pin(simulate_link_failure(s, cut[i]), graph),
              expected[i]);
  }
}

}  // namespace
}  // namespace itm::core
