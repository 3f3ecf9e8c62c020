// Example: mapping one popular service end to end (§3.2).
//
// Given a service hostname, discover its serving footprint with SNI
// scanning, map which front end every client prefix is directed to with ECS
// probing, geolocate the front ends from their client sets, and summarize
// users-per-site — the "where are services and how do users reach them"
// components of the traffic map for a single service.
//
//   $ ./service_mapping [seed] [hostname, default: most popular ECS service]
#include <iostream>
#include <map>

#include "core/report.h"
#include "core/scenario.h"
#include "example_args.h"
#include "inference/geolocation.h"
#include "scan/ecs_mapper.h"
#include "scan/tls_scanner.h"

int main(int argc, char** argv) {
  using namespace itm;
  const std::uint64_t seed = examples::seed_arg(argc, argv);
  auto scenario = core::Scenario::generate(core::default_config(seed));
  const auto& topo = scenario->topo();

  // Choose the service.
  const cdn::Service* service = nullptr;
  if (argc > 2) {
    service = scenario->catalog().by_hostname(argv[2]);
    if (service == nullptr) {
      std::cerr << "unknown hostname '" << argv[2] << "'\n";
      return 1;
    }
  } else {
    for (const ServiceId sid : scenario->catalog().by_popularity()) {
      const auto& svc = scenario->catalog().service(sid);
      if (svc.supports_ecs) {
        service = &svc;
        break;
      }
    }
  }
  std::cout << "== service: " << service->hostname << " ("
            << cdn::to_string(service->redirection)
            << (service->supports_ecs ? ", ECS" : "") << ") ==\n";

  // 1. SNI scan over discovered CDN addresses: the hosting footprint.
  const scan::TlsScanner scanner(scenario->tls(), topo.addresses);
  std::vector<std::string> operators;
  for (const auto& hg : scenario->deployment().hypergiants()) {
    operators.push_back(hg.name);
  }
  const auto tls = scanner.sweep(operators);
  std::vector<Ipv4Addr> cdn_addresses;
  for (const auto& ep : tls.endpoints) cdn_addresses.push_back(ep.address);
  const auto footprint = scanner.sni_scan(service->hostname, cdn_addresses);
  std::cout << "SNI scan: " << footprint.size() << " addresses serve this "
            << "hostname (of " << cdn_addresses.size()
            << " TLS endpoints found)\n";

  // 2. ECS sweep: client /24 -> front end.
  const scan::EcsMapper mapper(scenario->dns().authoritative(),
                               topo.geography.cities().front().id);
  const auto routable = topo.addresses.routable_slash24s();
  const auto sweep = mapper.sweep(*service, routable);

  // 3. Geolocate the front ends from their client sets.
  const inference::PrefixLocator locator =
      [&topo](const Ipv4Prefix& prefix) -> std::optional<GeoPoint> {
    const auto asn = topo.addresses.origin_of(prefix);
    if (!asn) return std::nullopt;
    return topo.geography.city(topo.graph.info(*asn).home_city).location;
  };
  const auto located = inference::geolocate_servers({sweep}, locator);

  // 4. Per-front-end summary with user weights (the map's point: weigh by
  // users, not by prefix count).
  std::map<Ipv4Addr, std::pair<std::size_t, double>> per_fe;  // prefixes, users
  for (const auto& [prefix, fe] : sweep) {
    auto& entry = per_fe[fe];
    entry.first += 1;
    if (const auto* up = scenario->users().find(prefix)) {
      entry.second += up->users;
    }
  }
  core::Table table({"front end", "host AS", "inferred location",
                     "client /24s", "users served"});
  for (const auto& [fe, stats] : per_fe) {
    const auto host = topo.addresses.origin_of(fe);
    std::string loc = "-";
    for (const auto& g : located) {
      if (g.address == fe) {
        std::string point(1, '(');
        point += core::num(g.location.lat_deg, 1);
        point += ',';
        point += core::num(g.location.lon_deg, 1);
        point += ')';
        loc = std::move(point);
      }
    }
    table.row(fe.to_string(),
              host ? topo.graph.info(*host).name : "?", loc, stats.first,
              static_cast<std::uint64_t>(stats.second));
  }
  table.print();

  // Off-net share of the mapping.
  std::size_t offnet_24s = 0;
  for (const auto& [prefix, fe] : sweep) {
    const auto* ep = scenario->tls().endpoint_at(fe);
    if (ep != nullptr && ep->offnet) ++offnet_24s;
  }
  std::cout << "\nclient /24s mapped to an off-net cache inside their own "
               "ISP: "
            << offnet_24s << " (" << core::pct(static_cast<double>(offnet_24s) / sweep.size())
            << ")\n";
  return 0;
}
