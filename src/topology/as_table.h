// Struct-of-arrays view of the AS graph: the Internet-scale substrate layout
// (DESIGN.md decision #10).
//
// AsGraph stores one AsInfo struct per AS — convenient to build, but every
// per-AS field lookup drags a whole cache line of unrelated fields (and a
// heap-allocated name) along, and per-AS vectors (presence cities,
// facilities, adjacency) scatter across the heap. AsTable flattens all of it
// once after generation:
//
//   * one dense column per scalar attribute (type, country, rank, cone, ...),
//     indexed by ASN — a column scan touches only the bytes it needs;
//   * CSR (offset + flat array) storage for adjacency, presence cities and
//     facilities — one allocation each, no pointer chasing;
//   * AS and country names interned into a net::StringTable whose order
//     matches the `.itms` snapshot's string section (AS names in dense ASN
//     order, then country names), so the snapshot writer reuses the table
//     instead of re-interning;
//   * the asn_to_rank / rank_to_asns flattening the related BGP simulators
//     use: rank 0 = ASes with no customers, rank(as) = 1 + max rank of its
//     customers. Rank sweeps are the substrate for staged parallel
//     propagation (ROADMAP) and give a cheap DAG-order iteration.
//
// The table is a *derived, immutable* view: build it after the graph stops
// changing. AsGraph remains the mutable builder API the generator fills in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ids.h"
#include "net/interner.h"
#include "topology/as_graph.h"
#include "topology/geography.h"

namespace itm::topology {

class AsTable {
 public:
  static AsTable build(const AsGraph& graph, const Geography& geography);

  [[nodiscard]] std::size_t size() const { return type_.size(); }

  // ---- scalar columns, indexed by dense ASN ----
  [[nodiscard]] AsType type(Asn asn) const { return type_[asn.value()]; }
  [[nodiscard]] CountryId country(Asn asn) const {
    return CountryId(country_[asn.value()]);
  }
  [[nodiscard]] CityId home_city(Asn asn) const {
    return CityId(home_city_[asn.value()]);
  }
  [[nodiscard]] PeeringPolicy policy(Asn asn) const {
    return policy_[asn.value()];
  }
  [[nodiscard]] TrafficProfile profile(Asn asn) const {
    return profile_[asn.value()];
  }
  [[nodiscard]] double size_factor(Asn asn) const {
    return size_factor_[asn.value()];
  }
  [[nodiscard]] std::uint32_t name_ref(Asn asn) const {
    return name_ref_[asn.value()];
  }
  [[nodiscard]] const std::string& name(Asn asn) const {
    return strings_.at(name_ref_[asn.value()]);
  }
  [[nodiscard]] std::uint32_t country_name_ref(CountryId country) const {
    return country_name_ref_[country.value()];
  }

  // ---- customer-cone and rank columns ----
  // CAIDA-style customer cone size (the AS itself plus everything reachable
  // over provider->customer edges), equal to
  // AsGraph::customer_cone_size(asn).
  [[nodiscard]] std::uint32_t cone_size(Asn asn) const {
    return cone_size_[asn.value()];
  }
  // rank 0 = no customers; rank(as) = 1 + max rank over customers.
  [[nodiscard]] std::uint32_t rank(Asn asn) const {
    return rank_of_[asn.value()];
  }
  [[nodiscard]] std::uint32_t num_ranks() const {
    return static_cast<std::uint32_t>(rank_offset_.size() - 1);
  }
  // All ASes of a rank, ascending ASN (rank_to_asns flattened to CSR).
  [[nodiscard]] std::span<const std::uint32_t> ases_at_rank(
      std::uint32_t rank) const {
    return {rank_ases_.data() + rank_offset_[rank],
            rank_ases_.data() + rank_offset_[rank + 1]};
  }

  // ---- CSR adjacency (same order as AsGraph::neighbors) ----
  struct NeighborView {
    Asn asn;
    Relation relation;
    std::uint32_t link_index;
  };
  [[nodiscard]] std::size_t degree(Asn asn) const {
    return adj_offset_[asn.value() + 1] - adj_offset_[asn.value()];
  }
  [[nodiscard]] NeighborView neighbor(Asn asn, std::size_t i) const {
    const std::size_t at = adj_offset_[asn.value()] + i;
    return {Asn(adj_asn_[at]), adj_relation_[at], adj_link_[at]};
  }

  // ---- CSR presence cities and facilities ----
  [[nodiscard]] std::span<const CityId> presence_cities(Asn asn) const {
    return {presence_cities_.data() + presence_offset_[asn.value()],
            presence_cities_.data() + presence_offset_[asn.value() + 1]};
  }
  [[nodiscard]] std::span<const FacilityId> facilities(Asn asn) const {
    return {facilities_.data() + facility_offset_[asn.value()],
            facilities_.data() + facility_offset_[asn.value() + 1]};
  }

  // The interned AS + country names, in snapshot string-section order.
  [[nodiscard]] const net::StringTable& strings() const { return strings_; }

  // Heap bytes of every column (the bench's bytes/AS numerator).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  std::vector<AsType> type_;
  std::vector<PeeringPolicy> policy_;
  std::vector<TrafficProfile> profile_;
  std::vector<std::uint32_t> country_;
  std::vector<std::uint32_t> home_city_;
  std::vector<std::uint32_t> name_ref_;
  std::vector<double> size_factor_;
  std::vector<std::uint32_t> cone_size_;

  std::vector<std::uint32_t> rank_of_;
  std::vector<std::uint32_t> rank_offset_;  // num_ranks + 1
  std::vector<std::uint32_t> rank_ases_;

  std::vector<std::uint32_t> adj_offset_;  // size + 1
  std::vector<std::uint32_t> adj_asn_;
  std::vector<Relation> adj_relation_;
  std::vector<std::uint32_t> adj_link_;

  std::vector<std::uint32_t> presence_offset_;  // size + 1
  std::vector<CityId> presence_cities_;
  std::vector<std::uint32_t> facility_offset_;  // size + 1
  std::vector<FacilityId> facilities_;

  std::vector<std::uint32_t> country_name_ref_;
  net::StringTable strings_;
};

}  // namespace itm::topology
