// AS-level graph: autonomous systems, their business relationships
// (customer-provider / settlement-free peering), and the facilities where
// links are realized.
//
// ASNs are dense indices (Asn(i) is the i-th AS), which keeps routing and
// traffic computations array-based and cache-friendly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ids.h"
#include "topology/geography.h"

namespace itm::topology {

enum class AsType : std::uint8_t {
  kTier1,       // transit-free backbone, peers with all other tier-1s
  kTransit,     // regional/national transit provider
  kAccess,      // eyeball/access network hosting end users
  kContent,     // ordinary content/hosting network
  kHypergiant,  // large content provider with global serving infrastructure
  kEnterprise,  // stub business network, few users, little content
};

[[nodiscard]] const char* to_string(AsType type);

enum class PeeringPolicy : std::uint8_t { kOpen, kSelective, kRestrictive };

[[nodiscard]] const char* to_string(PeeringPolicy policy);

// PeeringDB-style self-declared traffic direction.
enum class TrafficProfile : std::uint8_t {
  kHeavyOutbound,  // content-heavy
  kMostlyOutbound,
  kBalanced,
  kMostlyInbound,
  kHeavyInbound,  // eyeball-heavy
};

[[nodiscard]] const char* to_string(TrafficProfile profile);

// Relationship of a neighbor as seen from a given AS.
enum class Relation : std::uint8_t { kCustomer, kPeer, kProvider };

struct AsInfo {
  Asn asn;
  AsType type = AsType::kEnterprise;
  std::string name;
  CountryId country;
  CityId home_city;
  // Cities where the AS has network presence (includes home city).
  std::vector<CityId> presence_cities;
  // Facilities where the AS can interconnect.
  std::vector<FacilityId> facilities;
  PeeringPolicy policy = PeeringPolicy::kSelective;
  TrafficProfile profile = TrafficProfile::kBalanced;
  // Relative size within its class (1.0 = typical); drives user counts,
  // prefix counts and attractiveness as a peer.
  double size_factor = 1.0;
};

struct Neighbor {
  Asn asn;
  Relation relation;
  std::uint32_t link_index;  // index into AsGraph::links()
};

struct Link {
  // For transit links `a` is the customer and `b` the provider; for peering
  // the order carries no meaning.
  Asn a;
  Asn b;
  Relation a_to_b;  // kProvider is never stored here; a_to_b is kCustomer
                    // ("a is b's customer") or kPeer.
  std::vector<FacilityId> facilities;
  // Multilateral peering established via an IXP route server (the kind of
  // link [4] found >90% invisible in public topologies).
  bool via_route_server = false;
};

class AsGraph {
 public:
  // Adds an AS; its `asn` field is assigned densely and returned.
  Asn add_as(AsInfo info);

  // Declares `customer` to be a customer of `provider`.
  void add_transit(Asn customer, Asn provider,
                   std::vector<FacilityId> facilities = {});

  // Declares a settlement-free peering between a and b.
  void add_peering(Asn a, Asn b, std::vector<FacilityId> facilities = {},
                   bool via_route_server = false);

  [[nodiscard]] std::size_t size() const { return ases_.size(); }
  [[nodiscard]] const AsInfo& info(Asn asn) const {
    return ases_[asn.value()];
  }
  [[nodiscard]] AsInfo& info(Asn asn) { return ases_[asn.value()]; }
  [[nodiscard]] const std::vector<AsInfo>& ases() const { return ases_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] const std::vector<Neighbor>& neighbors(Asn asn) const {
    return adjacency_[asn.value()];
  }

  // True when a direct link (either kind) exists.
  [[nodiscard]] bool adjacent(Asn a, Asn b) const;

  // Relationship of `b` from `a`'s point of view, if adjacent.
  [[nodiscard]] std::optional<Relation> relation(Asn a, Asn b) const;

  // Degree counts by relation, for reporting.
  struct Degree {
    std::size_t customers = 0;
    std::size_t peers = 0;
    std::size_t providers = 0;
    [[nodiscard]] std::size_t total() const {
      return customers + peers + providers;
    }
  };
  [[nodiscard]] Degree degree(Asn asn) const;

 private:
  std::vector<AsInfo> ases_;
  std::vector<Link> links_;
  std::vector<std::vector<Neighbor>> adjacency_;
};

// Copies `src` keeping every AS and only the links for which `keep_link`
// returns true (relationship kinds and route-server flags preserved).
// Shared by the public-view subgraph, recommender augmentation and what-if
// rebuilds.
template <typename KeepLink>
[[nodiscard]] AsGraph copy_graph(const AsGraph& src, KeepLink&& keep_link) {
  AsGraph out;
  for (const auto& as : src.ases()) {
    AsInfo copy = as;
    out.add_as(std::move(copy));  // dense ASNs preserved by insertion order
  }
  for (const auto& link : src.links()) {
    if (!keep_link(link)) continue;
    if (link.a_to_b == Relation::kPeer) {
      out.add_peering(link.a, link.b, link.facilities, link.via_route_server);
    } else {
      out.add_transit(link.a, link.b, link.facilities);
    }
  }
  return out;
}

}  // namespace itm::topology
