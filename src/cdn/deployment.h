// Hypergiant serving infrastructure: on-net PoPs and off-net caches.
//
// Each hypergiant operates points of presence (PoPs) in the cities where it
// has facility presence, with front-end servers addressed from its own
// space; it additionally deploys off-net cache servers *inside* eyeball
// networks (addressed from the eyeball's space) — the deployments uncovered
// in "Seven years in the life of hypergiants' off-nets" [25], which TLS
// scanning can identify because off-nets present the hypergiant's
// certificates.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "net/ids.h"
#include "net/ipv4.h"
#include "net/rng.h"
#include "topology/generator.h"

namespace itm::cdn {

// Trailing content /24s of each hypergiant reserved for service VIPs
// (anycast and custom-URL bootstrap addresses); front ends fill earlier
// blocks. See ServiceCatalog::generate and Deployment::build.
inline constexpr std::uint32_t kVipReservedSlash24s = 2;

struct Pop {
  PopId id;
  HypergiantId owner;
  // AS the PoP's front ends live in: the hypergiant's own AS for on-net
  // PoPs, the hosting eyeball AS for off-net deployments.
  Asn asn;
  CityId city;
  bool offnet = false;
};

struct FrontEnd {
  ServerId id;
  HypergiantId owner;
  PopId pop;
  Ipv4Addr address;
};

struct Hypergiant {
  HypergiantId id;
  Asn asn;
  std::string name;
  std::vector<PopId> pops;
  // Fraction of this hypergiant's bytes served from off-net caches when the
  // client's AS hosts one (cache hit ratio of the off-net tier).
  double offnet_hit_ratio = 0.0;
};

struct DeploymentConfig {
  // Front-end servers per on-net PoP (before size scaling).
  std::size_t servers_per_pop = 4;
  // Probability scale for deploying an off-net cache in an access AS;
  // effective probability grows with the eyeball's size factor.
  double offnet_base = 0.25;
  // Hypergiants with index < this count deploy off-nets aggressively
  // (CDN/video-like); the rest deploy none (cloud-like).
  std::size_t offnet_heavy_hypergiants = 3;
  double offnet_hit_ratio = 0.75;
  std::size_t servers_per_offnet = 2;
};

class Deployment {
 public:
  static Deployment build(const topology::Topology& topo,
                          const DeploymentConfig& config, Rng& rng);

  [[nodiscard]] const std::vector<Hypergiant>& hypergiants() const {
    return hypergiants_;
  }
  [[nodiscard]] const Hypergiant& hypergiant(HypergiantId id) const {
    return hypergiants_[id.value()];
  }
  [[nodiscard]] const std::vector<Pop>& pops() const { return pops_; }
  [[nodiscard]] const Pop& pop(PopId id) const { return pops_[id.value()]; }
  [[nodiscard]] const std::vector<FrontEnd>& front_ends() const {
    return front_ends_;
  }

  // The hypergiant operating in a given AS number, if any.
  [[nodiscard]] const Hypergiant* by_asn(Asn asn) const;

  // Off-net PoP of `owner` inside `host_as`, or nullptr (O(1)).
  [[nodiscard]] const Pop* offnet_in(HypergiantId owner, Asn host_as) const;

  // Front-end addresses of a PoP (precomputed; hot path for DNS answers
  // and client mapping).
  [[nodiscard]] const std::vector<Ipv4Addr>& front_end_addresses(
      PopId pop) const {
    return pop_front_ends_[pop.value()];
  }

  // A copy of the deployment with every PoP hosted in `failed` removed
  // (PoP/front-end ids are re-assigned densely). Used for what-if analysis.
  [[nodiscard]] Deployment without_as(Asn failed) const;

 private:
  void build_indexes();

  std::vector<Hypergiant> hypergiants_;
  std::vector<Pop> pops_;
  std::vector<FrontEnd> front_ends_;
  // pop id -> front-end addresses.
  std::vector<std::vector<Ipv4Addr>> pop_front_ends_;
  // (hypergiant, host asn) -> pop index, for off-net lookup.
  std::unordered_map<std::uint64_t, std::size_t> offnet_index_;
};

}  // namespace itm::cdn
