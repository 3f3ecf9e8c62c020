// USECASE — §2.1's outage use case: "to assess the impact of an outage in a
// <region, AS>, the map can tell us which popular services are affected,
// which prefixes are affected, what fraction of traffic or users" — the
// TrafficMap answers these from public data only; this bench scores those
// answers against ground truth, and demonstrates the weighted-vs-unweighted
// CDF contrast the paper opens with.
//
// Usage: map_queries [seed] [scale] [country-id] — the optional third
// argument picks the case-study country for the detail view (default 0).
#include <algorithm>

#include "bench_common.h"
#include "net/stats.h"

int main(int argc, char** argv) {
  using namespace itm;
  const std::uint64_t country_arg =
      bench::arg_u64(argc, argv, 3, "country-id", 0);
  auto scenario = bench::make_scenario(argc, argv);
  core::MapBuilder builder(*scenario);
  std::cerr << "[bench] building the traffic map...\n";
  const auto map = builder.build();
  const auto& topo = scenario->topo();

  // --- Outage impact estimates vs ground truth across all eyeballs.
  std::vector<double> estimated, truth;
  for (const Asn asn : topo.accesses) {
    const auto impact = map.outage_impact(asn, topo.addresses);
    estimated.push_back(impact.activity_share);
    truth.push_back(scenario->matrix().as_client_bytes(asn) /
                    scenario->matrix().total_bytes());
  }
  std::cout << "== USECASE: outage-impact estimation ==\n";
  std::cout << "map's activity-share estimate vs true traffic share over "
            << estimated.size()
            << " eyeball ASes: spearman=" << core::num(spearman(estimated, truth))
            << " pearson=" << core::num(pearson(estimated, truth)) << "\n";

  // --- Detail view for the biggest eyeball of the case-study country.
  if (country_arg >= topo.geography.countries().size()) {
    std::cerr << "[bench] country id " << country_arg << " out of range (0.."
              << topo.geography.countries().size() - 1 << ")\n";
    return 2;
  }
  const CountryId case_study(static_cast<std::uint32_t>(country_arg));
  const auto eyeballs = topo.accesses_in(case_study);
  if (!eyeballs.empty()) {
    const Asn big = eyeballs.front();
    const auto impact = map.outage_impact(big, topo.addresses);
    std::cout << "\noutage of " << topo.graph.info(big).name << ":\n";
    std::cout << "  estimated activity share: "
              << core::pct(impact.activity_share) << " (truth: "
              << core::pct(scenario->matrix().as_client_bytes(big) /
                           scenario->matrix().total_bytes())
              << ")\n";
    std::cout << "  client /24s affected (map): " << impact.client_prefixes
              << "\n";
    std::cout << "  CDN servers inside the AS (off-nets): "
              << impact.servers_inside << "; services served from them: "
              << impact.services_served_from.size() << "\n";
  }

  // --- The paper's opening argument, quantified with the map: an
  // unweighted CDF over AS outages vs the activity-weighted CDF.
  WeightedCdf unweighted, weighted;
  for (std::size_t i = 0; i < estimated.size(); ++i) {
    unweighted.add(truth[i]);
    weighted.add(truth[i], truth[i]);
  }
  std::cout << "\n== weighted vs unweighted outage-impact CDF ==\n";
  core::Table table({"view", "median outage touches", "p90 outage touches"});
  table.row("unweighted (every AS equal)",
            core::pct(unweighted.quantile(0.5)),
            core::pct(unweighted.quantile(0.9)));
  table.row("traffic-weighted",
            core::pct(weighted.quantile(0.5)),
            core::pct(weighted.quantile(0.9)));
  table.print();
  std::cout << "counting outages equally suggests the median event is "
               "negligible; weighting by affected traffic shows the typical "
               "affected *byte* sits in a far more impactful event\n";
  itm::bench::dump_metrics_snapshot("map_queries");
  return 0;
}
