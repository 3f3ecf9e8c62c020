// Quickstart: generate a synthetic Internet, build a traffic map from
// public-data measurements, and compare a few headline numbers against the
// hidden ground truth.
//
//   $ ./quickstart [seed]
#include <iostream>

#include "core/report.h"
#include "core/scenario.h"
#include "core/traffic_map.h"
#include "example_args.h"
#include "inference/client_detection.h"

int main(int argc, char** argv) {
  using namespace itm;
  const std::uint64_t seed = examples::seed_arg(argc, argv);

  std::cout << "== itm quickstart ==\n";
  auto scenario = core::Scenario::generate(core::default_config(seed));
  const auto& topo = scenario->topo();
  std::cout << "generated internet: " << topo.graph.size() << " ASes, "
            << topo.graph.links().size() << " links, "
            << scenario->users().size() << " user /24s, "
            << scenario->catalog().size() << " services, "
            << scenario->deployment().front_ends().size()
            << " CDN front ends\n";

  core::MapBuilder builder(*scenario);
  const auto map = builder.build();

  core::Table summary({"map component", "value"});
  summary.row("client /24s detected (cache probing)",
              map.client_prefixes.size());
  summary.row("client ASes (combined techniques)", map.client_ases.size());
  summary.row("TLS endpoints discovered", map.tls.endpoints.size());
  summary.row("servers geolocated", map.server_locations.size());
  summary.row("ECS-mapped services", map.user_mapping.size());
  summary.row("links in public view", map.public_view.link_count());
  summary.row("recommended peering links", map.recommended_links.size());
  summary.print();

  // Score client detection against ground truth (reference hypergiant 0,
  // the paper's "fraction of Microsoft CDN traffic" metric).
  const auto coverage = inference::evaluate_prefixes(
      map.client_prefixes, scenario->users(), scenario->matrix(),
      HypergiantId(0));
  std::cout << "\ncache probing covers " << core::pct(coverage.traffic_coverage)
            << " of the reference hypergiant's traffic"
            << " (false positives " << core::pct(coverage.false_positive_rate)
            << ")\n";
  std::cout << "public peering-link visibility: "
            << core::pct(map.public_view.peering_coverage(topo.graph))
            << " of true peering links\n";
  return 0;
}
