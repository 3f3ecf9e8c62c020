#include "topology/as_graph.h"

#include <cassert>

namespace itm::topology {

const char* to_string(AsType type) {
  switch (type) {
    case AsType::kTier1: return "tier1";
    case AsType::kTransit: return "transit";
    case AsType::kAccess: return "access";
    case AsType::kContent: return "content";
    case AsType::kHypergiant: return "hypergiant";
    case AsType::kEnterprise: return "enterprise";
  }
  return "unknown";
}

const char* to_string(PeeringPolicy policy) {
  switch (policy) {
    case PeeringPolicy::kOpen: return "open";
    case PeeringPolicy::kSelective: return "selective";
    case PeeringPolicy::kRestrictive: return "restrictive";
  }
  return "unknown";
}

const char* to_string(TrafficProfile profile) {
  switch (profile) {
    case TrafficProfile::kHeavyOutbound: return "heavy-outbound";
    case TrafficProfile::kMostlyOutbound: return "mostly-outbound";
    case TrafficProfile::kBalanced: return "balanced";
    case TrafficProfile::kMostlyInbound: return "mostly-inbound";
    case TrafficProfile::kHeavyInbound: return "heavy-inbound";
  }
  return "unknown";
}

Asn AsGraph::add_as(AsInfo info) {
  const Asn asn(static_cast<std::uint32_t>(ases_.size()));
  info.asn = asn;
  if (info.presence_cities.empty()) {
    info.presence_cities.push_back(info.home_city);
  }
  ases_.push_back(std::move(info));
  adjacency_.emplace_back();
  return asn;
}

void AsGraph::add_transit(Asn customer, Asn provider,
                          std::vector<FacilityId> facilities) {
  assert(customer.value() < ases_.size() && provider.value() < ases_.size());
  assert(customer != provider);
  assert(!adjacent(customer, provider));
  const auto link_index = static_cast<std::uint32_t>(links_.size());
  links_.push_back(
      Link{customer, provider, Relation::kCustomer, std::move(facilities)});
  adjacency_[customer.value()].push_back(
      Neighbor{provider, Relation::kProvider, link_index});
  adjacency_[provider.value()].push_back(
      Neighbor{customer, Relation::kCustomer, link_index});
}

void AsGraph::add_peering(Asn a, Asn b, std::vector<FacilityId> facilities,
                          bool via_route_server) {
  assert(a.value() < ases_.size() && b.value() < ases_.size());
  assert(a != b);
  assert(!adjacent(a, b));
  const auto link_index = static_cast<std::uint32_t>(links_.size());
  links_.push_back(Link{a, b, Relation::kPeer, std::move(facilities),
                        via_route_server});
  adjacency_[a.value()].push_back(Neighbor{b, Relation::kPeer, link_index});
  adjacency_[b.value()].push_back(Neighbor{a, Relation::kPeer, link_index});
}

bool AsGraph::adjacent(Asn a, Asn b) const {
  return relation(a, b).has_value();
}

std::optional<Relation> AsGraph::relation(Asn a, Asn b) const {
  for (const auto& n : adjacency_[a.value()]) {
    if (n.asn == b) return n.relation;
  }
  return std::nullopt;
}

AsGraph::Degree AsGraph::degree(Asn asn) const {
  Degree d;
  for (const auto& n : adjacency_[asn.value()]) {
    switch (n.relation) {
      case Relation::kCustomer: ++d.customers; break;
      case Relation::kPeer: ++d.peers; break;
      case Relation::kProvider: ++d.providers; break;
    }
  }
  return d;
}

}  // namespace itm::topology
