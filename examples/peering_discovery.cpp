// Example: discovering invisible peering (§3.3).
//
// Shows how much of the AS-level topology route collectors actually see,
// runs the facility-based peering recommender over the PeeringDB registry,
// prints its best guesses with ground-truth verdicts, and traceroutes one
// eyeball-to-hypergiant path to show the data plane crossing a link no
// collector observed.
//
//   $ ./peering_discovery [seed]
#include <iostream>

#include "core/report.h"
#include "core/scenario.h"
#include "example_args.h"
#include "inference/recommender.h"
#include "routing/public_view.h"
#include "scan/traceroute.h"

int main(int argc, char** argv) {
  using namespace itm;
  const std::uint64_t seed = examples::seed_arg(argc, argv);
  auto scenario = core::Scenario::generate(core::default_config(seed));
  const auto& topo = scenario->topo();
  const routing::Bgp bgp(topo.graph);

  // Public view from collector feeders.
  std::vector<Asn> feeders = topo.tier1s;
  for (std::size_t i = 0; i < topo.transits.size() / 6; ++i) {
    feeders.push_back(topo.transits[i]);
  }
  std::vector<Asn> dests;
  for (const auto& as : topo.graph.ases()) dests.push_back(as.asn);
  const auto view = routing::collect_public_view(bgp, feeders, dests);
  const auto observed = routing::observed_subgraph(topo.graph, view);

  std::cout << "== what route collectors see ==\n";
  std::cout << "links in ground truth: " << topo.graph.links().size()
            << ", observed: " << view.link_count() << " ("
            << core::pct(view.coverage(topo.graph)) << ")\n";
  std::cout << "peering links observed: "
            << core::pct(view.peering_coverage(topo.graph))
            << " — the rest is the invisible mesh the paper wants mapped\n";

  // Recommender.
  const inference::PeeringRecommender recommender(scenario->peeringdb(),
                                                  observed);
  const auto candidates = recommender.recommend(15);
  std::cout << "\n== top recommended missing links ==\n";
  core::Table table({"rank", "a", "b", "score", "ground truth"});
  std::size_t rank = 1;
  for (const auto& c : candidates) {
    table.row(rank++, topo.graph.info(c.a).name, topo.graph.info(c.b).name,
              core::num(c.score), topo.graph.adjacent(c.a, c.b)
                                      ? "link exists"
                                      : "no link");
  }
  table.print();

  // A data-plane path crossing invisible links.
  const scan::Traceroute tracer(topo, scenario->routers());
  for (const Asn src : topo.accesses) {
    const Asn dst_as = topo.hypergiants.front();
    const auto table_to_hg = bgp.routes_to(dst_as);
    const auto path = table_to_hg.path_from(src);
    bool invisible = false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!view.observed(path[i], path[i + 1])) invisible = true;
    }
    if (!invisible) continue;
    const auto dst = topo.addresses.of(dst_as).infra_slash24.address_at(1);
    std::cout << "\n== traceroute " << topo.graph.info(src).name << " -> "
              << topo.graph.info(dst_as).name
              << " (crosses a collector-invisible link) ==\n";
    core::Table hops({"hop", "AS", "interface", "rtt ms", "link to next"});
    const auto trace = tracer.trace(src, dst);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      std::string note;
      if (i + 1 < trace.size()) {
        note = view.observed(trace[i].asn, trace[i + 1].asn)
                   ? "public"
                   : "INVISIBLE to collectors";
      }
      hops.row(i + 1, topo.graph.info(trace[i].asn).name,
               trace[i].interface.to_string(), core::num(trace[i].rtt_ms, 1),
               note);
    }
    hops.print();
    break;
  }
  return 0;
}
