// Client-to-front-end mapping: which serving site handles a client's bytes.
//
// This is the ground-truth "mapping from users to hosts" component of the
// traffic map (§3.2). Four mechanisms are modeled:
//   * DNS redirection — the authoritative picks the PoP nearest to the
//     location it can see: the client's own prefix with ECS, otherwise the
//     recursive resolver's location (the classic public-resolver mismatch);
//   * anycast — BGP delivers the client to the site nearest its ingress
//     point into the hypergiant's network;
//   * custom URLs — per-client URLs are precise, so bytes come from the
//     optimal site (the paper's §3.2.3 argument);
//   * single-site — long-tail services served from their origin.
// When the client's AS hosts an off-net cache of the service's hypergiant
// and the content is cacheable, the off-net serves the connection.
#pragma once

#include <optional>
#include <vector>

#include "cdn/deployment.h"
#include "cdn/services.h"
#include "topology/generator.h"

namespace itm::cdn {

struct MappingResult {
  // Serving PoP; empty for single-site services.
  std::optional<PopId> pop;
  Asn server_as{0};
  CityId server_city{0};
  Ipv4Addr address;
  bool offnet = false;
};

struct MappingConfig {
  // Probability that DNS geo-mapping picks the true nearest PoP; otherwise
  // the second nearest is returned (deterministic per service+city).
  double geo_mapping_accuracy = 0.9;
};

class ClientMapper {
 public:
  ClientMapper(const topology::Topology& topo, const Deployment& deployment,
               MappingConfig config = {});

  // Destination of the client's bytes for `service`. `effective_city` is
  // what the service's DNS can see: the client's city when ECS applies, the
  // resolver's city otherwise (callers decide; irrelevant for non-DNS
  // services). `flow_hash` spreads clients across a PoP's front ends.
  // `allow_offnet=false` computes the fallback on-net mapping, used to
  // attribute the off-net cache-miss fraction of the bytes.
  [[nodiscard]] MappingResult map(const Service& service, Asn client_as,
                                  CityId client_city, CityId effective_city,
                                  std::uint64_t flow_hash,
                                  bool allow_offnet = true) const;

  // Pure anycast catchment of a hypergiant for a client AS (ignores
  // off-nets): the on-net PoP nearest the client's BGP ingress.
  [[nodiscard]] PopId anycast_site(HypergiantId hg, Asn client_as) const;

  // Geographically optimal on-net PoP for a client city.
  [[nodiscard]] PopId optimal_site(HypergiantId hg, CityId client_city) const;

  // The PoP a DNS-redirection authoritative would return for an effective
  // city (includes the deterministic geo-mapping error).
  [[nodiscard]] PopId dns_site(const Service& service, CityId effective_city)
      const;

  [[nodiscard]] const Deployment& deployment() const { return *deployment_; }

 private:
  // The two on-net PoPs of a hypergiant nearest a city, the first of
  // equally distant PoPs (in `Hypergiant::pops` order) winning.
  struct NearestPops {
    PopId nearest{0};
    PopId second{0};
    bool have_second = false;
  };

  [[nodiscard]] const NearestPops& nearest_pops(HypergiantId hg,
                                                CityId city) const {
    return nearest_[hg.value() * num_cities_ + city.value()];
  }
  [[nodiscard]] MappingResult finish(PopId pop, std::uint64_t flow_hash) const;
  [[nodiscard]] std::optional<PopId> offnet_override(const Service& service,
                                                     Asn client_as) const;

  const topology::Topology* topo_;
  const Deployment* deployment_;
  MappingConfig config_;
  std::size_t num_cities_;
  // Built once in the constructor: [hypergiant * cities + city]. Every
  // nearest-PoP answer (dns_site, optimal_site, anycast catchments) reads it.
  std::vector<NearestPops> nearest_;
  // Precomputed anycast catchments: [hypergiant][client asn] -> PoP.
  std::vector<std::vector<PopId>> anycast_catchment_;
};

}  // namespace itm::cdn
