// Synthetic Internet topology generator.
//
// Produces an AS graph with the structural properties the paper's
// measurement techniques depend on:
//   * a small tier-1 clique and a layer of national transit providers,
//   * heavy-tailed access (eyeball) networks concentrated in a few countries,
//   * a handful of hypergiants that peer directly with most large eyeballs
//     ("Internet flattening" — most user traffic is <= 1 AS hop),
//   * content and enterprise stubs,
//   * peering constrained to shared colocation facilities with a
//     policy/size/profile-driven probability (the ground truth that the
//     §3.3.3 peering recommender tries to learn back).
//
// A few large eyeballs in the first five countries carry stable stand-in
// names (Orange, Free, ...) so the Figure 2 reproduction prints recognizable
// rows; they are synthetic networks, not measurements of the real ISPs.
#pragma once

#include <vector>

#include "net/rng.h"
#include "topology/address_plan.h"
#include "topology/as_graph.h"
#include "topology/geography.h"

namespace itm::topology {

struct TopologyConfig {
  GeographyConfig geography;

  std::size_t num_tier1 = 8;
  std::size_t num_transit = 48;
  std::size_t num_access = 240;
  std::size_t num_content = 90;
  std::size_t num_hypergiants = 6;
  std::size_t num_enterprise = 80;

  // Pareto shape for access-network size factors (smaller = heavier tail).
  double access_size_alpha = 1.1;
  // Providers per access network, 1..max.
  std::size_t max_access_providers = 3;
  // Base probability that a hypergiant peers directly with an access AS of
  // median size; scales up with eyeball size (see implementation).
  double hypergiant_peering_base = 0.35;
  // Probability scale for non-hypergiant peering at shared facilities.
  double peering_base = 0.25;
  // IXPs: one per country whose user share reaches the median; join and
  // route-server participation probabilities by declared policy.
  bool build_ixps = true;
  double ixp_join_open = 0.85;
  double ixp_join_selective = 0.5;
  // Route-server participation by policy (selective networks commonly use
  // route servers too, just less universally).
  double ixp_route_server_rate = 0.9;
  double ixp_route_server_selective = 0.45;

  AddressPlanConfig addressing;
};

// An Internet exchange point: a shared fabric at one facility. Members may
// peer bilaterally (covered by the facility-based affinity model); open
// members additionally join the route server and peer multilaterally with
// every other participant — the link class [4] found overwhelmingly
// invisible in public topologies.
struct Ixp {
  IxpId id;
  std::string name;
  FacilityId facility;
  std::vector<Asn> members;
  std::vector<Asn> route_server_participants;
};

struct Topology {
  Geography geography;
  AsGraph graph;
  AddressPlan addresses;
  std::vector<Ixp> ixps;

  std::vector<Asn> tier1s;
  std::vector<Asn> transits;
  std::vector<Asn> accesses;
  std::vector<Asn> contents;
  std::vector<Asn> hypergiants;
  std::vector<Asn> enterprises;

  // Access ASes per country, largest first.
  [[nodiscard]] std::vector<Asn> accesses_in(CountryId country) const;
};

// Ground-truth probability that two ASes would peer given a shared facility;
// exposed so tests and the recommender evaluation can reference the exact
// generative model.
[[nodiscard]] double peering_affinity(const AsInfo& a, const AsInfo& b,
                                      std::size_t shared_facilities,
                                      const TopologyConfig& config);

[[nodiscard]] Topology generate_topology(const TopologyConfig& config,
                                         Rng& rng);

}  // namespace itm::topology
