#include "core/whatif.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace itm::core {

namespace {

std::vector<WhatIfReport::LinkShift> top_gaining(
    const topology::AsGraph& graph, const std::vector<double>& link_delta,
    std::size_t k) {
  std::vector<WhatIfReport::LinkShift> shifts;
  for (std::size_t li = 0; li < link_delta.size(); ++li) {
    if (link_delta[li] <= 0) continue;
    const auto& link = graph.links()[li];
    shifts.push_back(WhatIfReport::LinkShift{link.a, link.b, link_delta[li]});
  }
  std::sort(shifts.begin(), shifts.end(), [](const auto& x, const auto& y) {
    return x.delta_bytes > y.delta_bytes;
  });
  if (shifts.size() > k) shifts.resize(k);
  return shifts;
}

// The scenario's world with only the links `keep` accepts. Every AS keeps
// its node, and AddressPlan::build reads nothing but the AS list, so the
// address plan is the baseline's.
template <typename KeepLink>
topology::Topology degraded_topology(const topology::Topology& topo,
                                     const KeepLink& keep) {
  return topology::Topology{.geography = topo.geography,
                            .graph = topology::copy_graph(topo.graph, keep),
                            .addresses = topo.addresses,
                            .ixps = topo.ixps,
                            .tier1s = topo.tier1s,
                            .transits = topo.transits,
                            .accesses = topo.accesses,
                            .contents = topo.contents,
                            .hypergiants = topo.hypergiants,
                            .enterprises = topo.enterprises};
}

// The traffic matrix of a degraded world, with the scenario's catalog,
// public DNS PoPs and demand.
traffic::TrafficMatrix rebuild_matrix(const Scenario& scenario,
                                      const topology::Topology& degraded,
                                      const cdn::Deployment& deployment,
                                      const traffic::UserBase& users) {
  const cdn::ClientMapper mapper(degraded, deployment,
                                 scenario.config().mapping);
  std::vector<CityId> pop_cities;
  for (const auto& pop : scenario.dns().public_pops()) {
    pop_cities.push_back(pop.city);
  }
  return traffic::TrafficMatrix::build(degraded, users, scenario.catalog(),
                                       mapper, pop_cities,
                                       scenario.config().demand);
}

// Fills `link_delta` with every baseline link's load change and returns the
// load-shift index: the positive changes over the surviving link-crossing
// volume. copy_graph keeps link order, so degraded link i is the i-th
// baseline link that `keep` accepts.
template <typename KeepLink>
double shift_link_loads(const Scenario& scenario, const KeepLink& keep,
                        const traffic::TrafficMatrix& after,
                        std::vector<double>& link_delta) {
  const auto& links = scenario.topo().graph.links();
  const auto before = scenario.matrix().link_bytes();
  const auto after_links = after.link_bytes();
  link_delta.assign(links.size(), 0.0);
  double positive_shift = 0, after_crossings = 0;
  for (std::size_t li = 0, di = 0; li < links.size(); ++li) {
    if (!keep(links[li])) {
      link_delta[li] = -before[li];
      continue;
    }
    link_delta[li] = after_links[di] - before[li];
    after_crossings += after_links[di];
    ++di;
  }
  for (const double d : link_delta) {
    if (d > 0) positive_shift += d;
  }
  return after_crossings > 0 ? positive_shift / after_crossings : 0.0;
}

}  // namespace

std::vector<WhatIfReport::LinkShift> WhatIfReport::top_gaining_links(
    const topology::AsGraph& graph, std::size_t k) const {
  return top_gaining(graph, link_delta, k);
}

std::vector<WhatIfReport::LinkShift> LinkFailureReport::top_gaining_links(
    const topology::AsGraph& graph, std::size_t k) const {
  return top_gaining(graph, link_delta, k);
}

WhatIfReport simulate_as_failure(const Scenario& scenario, Asn failed) {
  const auto& topo = scenario.topo();
  // A hard check, not an assert: release builds (NDEBUG) would otherwise
  // fall through and compute garbage mappings for a site-less hypergiant.
  if (topo.graph.info(failed).type == topology::AsType::kHypergiant) {
    throw std::invalid_argument(
        "simulate_as_failure: failing a hypergiant AS is not supported "
        "(its services would have no serving sites)");
  }

  WhatIfReport report;
  report.failed = failed;
  const auto& baseline = scenario.matrix();
  report.baseline_bytes = baseline.total_bytes();
  report.client_bytes_lost =
      baseline.as_client_bytes(failed) / baseline.total_bytes();
  for (const auto& svc : scenario.catalog().services()) {
    if (svc.origin_as == failed && !svc.hypergiant) {
      report.service_bytes_lost +=
          baseline.service_bytes(svc.id) / baseline.total_bytes();
    }
  }

  // Off-net bytes that were served inside the failed AS (all to its own
  // clients, hence part of the lost traffic; reported for context).
  const auto prefixes = scenario.users().all();
  for (const auto& up : prefixes) {
    if (up.asn != failed) continue;
    for (const auto& svc : scenario.catalog().services()) {
      if (!svc.hypergiant || !svc.offnet_cacheable) continue;
      if (scenario.deployment().offnet_in(*svc.hypergiant, failed) ==
          nullptr) {
        continue;
      }
      const double hit = scenario.deployment()
                             .hypergiant(*svc.hypergiant)
                             .offnet_hit_ratio;
      report.offnet_bytes_displaced += up.activity * svc.popularity *
                                       scenario.config().demand.bytes_scale *
                                       hit / baseline.total_bytes();
    }
  }

  // ---- Rebuild the world without the failed AS's links/users/caches.
  const auto keep = [failed](const topology::Link& link) {
    return link.a != failed && link.b != failed;
  };
  auto degraded = degraded_topology(topo, keep);
  for (auto& ixp : degraded.ixps) {
    std::erase(ixp.members, failed);
    std::erase(ixp.route_server_participants, failed);
  }
  const auto after = rebuild_matrix(scenario, degraded,
                                    scenario.deployment().without_as(failed),
                                    scenario.users().without_as(failed));
  // Demand to unreachable servers (e.g. origins inside the failed AS) is
  // still generated but undeliverable; exclude it from surviving traffic.
  report.surviving_bytes = after.total_bytes() - after.unreachable_bytes();
  report.link_load_shifted =
      shift_link_loads(scenario, keep, after, report.link_delta);
  return report;
}

LinkFailureReport simulate_link_failure(const Scenario& scenario,
                                        std::size_t link_index) {
  const auto& topo = scenario.topo();
  assert(link_index < topo.graph.links().size());
  const auto& baseline = scenario.matrix();

  LinkFailureReport report;
  const auto& cut = topo.graph.links()[link_index];
  report.a = cut.a;
  report.b = cut.b;
  report.link_bytes_before = baseline.link_bytes()[link_index];

  // Rebuild the world without this single link.
  const auto keep = [&cut](const topology::Link& link) {
    return &link != &cut;
  };
  const auto degraded = degraded_topology(topo, keep);
  const auto after = rebuild_matrix(scenario, degraded, scenario.deployment(),
                                    scenario.users());
  report.bytes_disconnected =
      (after.unreachable_bytes() - baseline.unreachable_bytes()) /
      baseline.total_bytes();
  report.link_load_shifted =
      shift_link_loads(scenario, keep, after, report.link_delta);
  return report;
}

}  // namespace itm::core
