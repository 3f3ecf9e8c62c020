// Example: "banishing unweighted CDFs" — the paper's opening argument in
// thirty lines. Computes the same three analyses unweighted and traffic-
// weighted and prints how the conclusions flip.
//
//   $ ./weighted_cdf [seed]
#include <iostream>

#include "core/report.h"
#include "core/scenario.h"
#include "example_args.h"
#include "net/stats.h"
#include "routing/bgp.h"

int main(int argc, char** argv) {
  using namespace itm;
  const std::uint64_t seed = examples::seed_arg(argc, argv);
  auto scenario = core::Scenario::generate(core::default_config(seed));
  const auto& topo = scenario->topo();
  const auto& matrix = scenario->matrix();

  core::Table table({"analysis", "unweighted answer", "weighted answer"});

  // 1. "How long is a typical Internet path?"
  {
    const auto hist = matrix.bytes_by_hops();
    double total = 0, acc = 0;
    for (const double b : hist) total += b;
    double weighted_median = 0;
    for (std::size_t h = 0; h < hist.size(); ++h) {
      acc += hist[h];
      if (acc >= total / 2) {
        weighted_median = static_cast<double>(h);
        break;
      }
    }
    // Unweighted: path lengths from every AS to a mixed destination set.
    const routing::Bgp bgp(topo.graph);
    WeightedCdf unweighted;
    for (std::size_t i = 0; i < 25 && i < topo.contents.size(); ++i) {
      const auto t = bgp.routes_to(topo.contents[i]);
      for (const auto& as : topo.graph.ases()) {
        if (t.at(as.asn).reachable()) unweighted.add(t.at(as.asn).hops);
      }
    }
    table.row("median AS-path length",
              core::num(unweighted.quantile(0.5), 0) + " hops",
              core::num(weighted_median, 0) + " hops (per byte)");
  }

  // 2. "Does a typical network outage matter?"
  {
    WeightedCdf unweighted, weighted;
    for (const Asn asn : topo.accesses) {
      const double share =
          matrix.as_client_bytes(asn) / matrix.total_bytes();
      unweighted.add(share);
      weighted.add(share, share);
    }
    table.row("median AS outage affects",
              core::pct(unweighted.quantile(0.5), 2) + " of traffic",
              core::pct(weighted.quantile(0.5), 2) + " (per byte)");
  }

  // 3. "Is a congested interconnect a big deal?"
  {
    const auto link_bytes = matrix.link_bytes();
    double total = 0;
    for (const double b : link_bytes) total += b;
    WeightedCdf unweighted, weighted;
    for (const double b : link_bytes) {
      unweighted.add(b / total);
      weighted.add(b / total, b);
    }
    table.row("median congested link carries",
              core::pct(unweighted.quantile(0.5), 3) + " of traffic",
              core::pct(weighted.quantile(0.5), 3) + " (per byte)");
  }

  std::cout << "== the unweighted-CDF fallacy, quantified ==\n";
  table.print();
  std::cout << "\nevery row: counting paths/networks/links equally suggests "
               "phenomena are mild; weighting by the traffic map shows what "
               "a typical BYTE experiences.\n";
  return 0;
}
