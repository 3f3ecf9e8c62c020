// ABLATIONS — sensitivity of the measurement techniques to the design
// choices DESIGN.md calls out:
//   A1: probing cadence (sweeps/day) vs. client-prefix coverage,
//   A2: public-DNS adoption vs. coverage (the technique rides on it),
//   A3: ECS scoping is what makes cache probing per-prefix (probing
//       non-ECS names yields shared entries: hits without localization),
//   A4: number of open root letters vs. root-log coverage,
//   A5: recommender similarity weight vs. precision.
// Run on a reduced scenario so the whole sweep stays fast.
#include "bench_common.h"
#include "inference/client_detection.h"
#include "inference/recommender.h"
#include "routing/public_view.h"

namespace {

itm::core::ScenarioConfig reduced(std::uint64_t seed) {
  auto c = itm::core::default_config(seed);
  c.topology.num_access = 120;
  c.topology.num_content = 45;
  c.topology.num_enterprise = 40;
  c.topology.addressing.user_24s_per_access_as = 32.0;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace itm;
  const std::uint64_t seed = bench::arg_u64(argc, argv, 1, "seed", 42);

  // ---- A1: probing cadence.
  std::cout << "== A1: cache-probing sweeps per day vs coverage ==\n";
  {
    core::Table table({"sweeps/day", "traffic coverage", "prefixes found"});
    for (const std::size_t rounds : {2u, 4u, 8u, 16u}) {
      auto scenario = core::Scenario::generate(reduced(seed));
      auto day = bench::run_measurement_day(*scenario, rounds);
      const auto cov = inference::evaluate_prefixes(
          day.prober->detected_prefixes(), scenario->users(),
          scenario->matrix(), HypergiantId(0));
      table.row(rounds, core::pct(cov.traffic_coverage), cov.detected);
    }
    table.print();
  }

  // ---- A2: public-DNS adoption.
  std::cout << "\n== A2: public-DNS adoption vs coverage ==\n";
  {
    core::Table table({"mean adoption", "traffic coverage"});
    for (const double adoption : {0.1, 0.32, 0.6}) {
      auto config = reduced(seed);
      config.users.public_dns_mean = adoption;
      auto scenario = core::Scenario::generate(config);
      auto day = bench::run_measurement_day(*scenario, 8);
      const auto cov = inference::evaluate_prefixes(
          day.prober->detected_prefixes(), scenario->users(),
          scenario->matrix(), HypergiantId(0));
      table.row(core::pct(adoption, 0), core::pct(cov.traffic_coverage));
    }
    table.print();
  }

  // ---- A3: ECS scoping. Count per-prefix signal when probing an ECS name
  // vs a non-ECS name: the latter's cache entry is shared per PoP, so a
  // probe "hit" says nothing about the probed prefix.
  std::cout << "\n== A3: ECS scoping localizes hits ==\n";
  {
    auto scenario = core::Scenario::generate(reduced(seed));
    core::Workload workload(*scenario, {}, seed);
    workload.advance_to(kSecondsPerHour * 12);
    const cdn::Service* ecs = nullptr;
    const cdn::Service* non_ecs = nullptr;
    for (const ServiceId sid : scenario->catalog().by_popularity()) {
      const auto& svc = scenario->catalog().service(sid);
      if (svc.redirection != cdn::RedirectionKind::kDnsRedirection) continue;
      if (svc.supports_ecs && ecs == nullptr) ecs = &svc;
      if (!svc.supports_ecs && non_ecs == nullptr) non_ecs = &svc;
    }
    if (ecs == nullptr || non_ecs == nullptr) {
      std::cout << "(catalog lacks an ECS or non-ECS DNS service; skipping "
                   "A3)\n";
    } else {
    const auto routable = scenario->topo().addresses.routable_slash24s();
    const auto count_hits = [&](const cdn::Service& svc) {
      std::size_t hits = 0;
      for (const auto& prefix : routable) {
        for (std::size_t pop = 0;
             pop < scenario->dns().public_pops().size(); ++pop) {
          if (scenario->dns().probe_cache(pop, svc, prefix,
                                          kSecondsPerHour * 12)) {
            ++hits;
            break;
          }
        }
      }
      return hits;
    };
    core::Table table({"probe name", "prefixes 'hit'", "of routable",
                       "interpretation"});
    const auto ecs_hits = count_hits(*ecs);
    const auto global_hits = count_hits(*non_ecs);
    table.row(ecs->hostname + " (ECS)", ecs_hits,
              core::pct(static_cast<double>(ecs_hits) / routable.size()),
              "per-prefix client evidence");
    table.row(non_ecs->hostname + " (no ECS)", global_hits,
              core::pct(static_cast<double>(global_hits) / routable.size()),
              "shared entry: every prefix 'hits'");
    table.print();
    }
  }

  // ---- A4: open root letters.
  std::cout << "\n== A4: crawlable root letters vs root-log coverage ==\n";
  {
    core::Table table({"open letters", "AS-level traffic coverage",
                       "queries crawled"});
    for (const std::size_t letters : {1u, 3u, 13u}) {
      auto config = reduced(seed);
      config.dns.root.open_letters = letters;
      config.dns.root.anonymized_fraction = 0.0;
      auto scenario = core::Scenario::generate(config);
      core::Workload workload(*scenario, {}, seed);
      workload.finish();
      const auto crawl = scan::crawl_root_logs(scenario->dns(),
                                               scenario->topo().addresses);
      const auto cov = inference::evaluate_ases(
          crawl.detected_ases(), scenario->users(), scenario->matrix(),
          HypergiantId(0), scenario->topo());
      table.row(letters, core::pct(cov.traffic_coverage),
                core::pct(static_cast<double>(crawl.total_crawled) /
                          scenario->dns().roots().total_queries()));
    }
    table.print();
    std::cout << "(detection is binary per AS, so even one letter finds the "
                 "busy resolvers; the coverage cap comes from resolver "
                 "outsourcing, not log sampling)\n";
  }

  // ---- A5b: probe loss.
  std::cout << "\n== A5b: probe loss vs coverage ==\n";
  {
    core::Table table({"probe loss", "traffic coverage"});
    for (const double loss : {0.0, 0.05, 0.25}) {
      auto scenario = core::Scenario::generate(reduced(seed));
      scan::CacheProbeConfig probe_config;
      probe_config.probe_loss = loss;
      auto day = bench::run_measurement_day(*scenario, 8, probe_config);
      const auto cov = inference::evaluate_prefixes(
          day.prober->detected_prefixes(), scenario->users(),
          scenario->matrix(), HypergiantId(0));
      table.row(core::pct(loss, 0), core::pct(cov.traffic_coverage));
    }
    table.print();
    std::cout << "(repeated sweeps make detection robust to moderate "
                 "loss)\n";
  }

  // ---- A5: recommender similarity weight.
  std::cout << "\n== A5: recommender similarity weight vs precision ==\n";
  {
    auto scenario = core::Scenario::generate(reduced(seed));
    const auto& topo = scenario->topo();
    const routing::Bgp bgp(topo.graph);
    std::vector<Asn> feeders = topo.tier1s;
    for (std::size_t i = 0; i < topo.transits.size() / 6; ++i) {
      feeders.push_back(topo.transits[i]);
    }
    std::vector<Asn> dests;
    for (const auto& as : topo.graph.ases()) dests.push_back(as.asn);
    const auto view = routing::collect_public_view(bgp, feeders, dests);
    const auto observed = routing::observed_subgraph(topo.graph, view);
    core::Table table({"similarity weight", "precision@300", "recall"});
    for (const double w : {0.0, 0.25, 0.5}) {
      inference::RecommenderConfig config;
      config.similarity_weight = w;
      const inference::PeeringRecommender rec(scenario->peeringdb(), observed,
                                              config);
      const auto candidates = rec.recommend(300);
      const auto score =
          inference::score_recommendations(candidates, topo.graph, view);
      table.row(core::num(w), core::pct(score.precision()),
                core::pct(score.recall()));
    }
    table.print();
  }
  return 0;
}
