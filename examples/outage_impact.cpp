// Example: the paper's §2.1 outage use case.
//
// "To assess the impact of an outage in a <region, AS>, the map can tell us
// which popular services are affected, which prefixes are affected for
// those services, what fraction of traffic or users are affected, and where
// the prefixes may be routed instead."
//
//   $ ./outage_impact [seed] [AS name, default: the biggest Francia ISP]
#include <iostream>

#include "core/report.h"
#include "core/scenario.h"
#include "core/traffic_map.h"
#include "example_args.h"
#include "routing/bgp.h"

int main(int argc, char** argv) {
  using namespace itm;
  const std::uint64_t seed = examples::seed_arg(argc, argv);
  auto scenario = core::Scenario::generate(core::default_config(seed));
  const auto& topo = scenario->topo();

  // Pick the AS to fail.
  Asn failed = topo.accesses_in(CountryId(0)).front();
  if (argc > 2) {
    bool found = false;
    for (const auto& as : topo.graph.ases()) {
      if (as.name == argv[2]) {
        failed = as.asn;
        found = true;
      }
    }
    if (!found) {
      std::cerr << "unknown AS name '" << argv[2] << "'\n";
      return 1;
    }
  }

  std::cout << "building the traffic map (public data only)...\n";
  core::MapBuilder builder(*scenario);
  const auto map = builder.build();

  const auto& info = topo.graph.info(failed);
  const auto impact = map.outage_impact(failed, topo.addresses);
  std::cout << "\n== outage scenario: " << info.name << " ("
            << topo.geography.country(info.country).name << ", "
            << topology::to_string(info.type) << ") ==\n";
  std::cout << "estimated share of global activity affected: "
            << core::pct(impact.activity_share) << "\n";
  std::cout << "client /24s known to the map inside the AS: "
            << impact.client_prefixes << "\n";
  std::cout << "CDN servers (off-net caches) inside the AS: "
            << impact.servers_inside << "\n";
  if (!impact.services_served_from.empty()) {
    std::cout << "services with mapped front ends inside the AS:";
    for (const ServiceId sid : impact.services_served_from) {
      std::cout << " " << scenario->catalog().service(sid).hostname;
    }
    std::cout << "\n  -> during the outage those bytes fall back to on-net "
                 "sites (higher latency, upstream links)\n";
  }

  // Where would this AS's traffic be routed instead? Use the map's
  // augmented topology: the failed AS's providers and peers absorb it.
  std::cout << "\nupstreams that would absorb redirected traffic:\n";
  core::Table table({"neighbor", "relation", "note"});
  for (const auto& nb : map.augmented_graph.neighbors(failed)) {
    const auto& n = topo.graph.info(nb.asn);
    const char* rel = nb.relation == topology::Relation::kProvider
                          ? "provider"
                          : nb.relation == topology::Relation::kPeer
                                ? "peer"
                                : "customer";
    if (nb.relation == topology::Relation::kCustomer) continue;
    table.row(n.name, rel,
              map.public_view.observed(failed, nb.asn)
                  ? "publicly visible link"
                  : "link known only via recommender");
  }
  table.print();

  // Ground-truth check for the curious (a real deployment could not do
  // this): the true traffic share.
  std::cout << "\n[ground truth] actual share of global bytes: "
            << core::pct(scenario->matrix().as_client_bytes(failed) /
                         scenario->matrix().total_bytes())
            << "\n";
  return 0;
}
