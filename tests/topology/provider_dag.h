// Acyclicity of the customer->provider relation: the generator only builds
// transit links from a customer to a provider higher in the hierarchy, and
// Gao–Rexford export and valley-free routing assume no AS is (transitively)
// its own provider.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/as_graph.h"

namespace itm::topology {

// Kahn sweep over customer->provider edges: starts from the ASes with no
// customers and releases a provider once all its customers are ordered.
// Returns how many ASes the sweep ordered; it equals graph.size() exactly
// when the relation is a DAG (an AS on or above a cycle is never released).
inline std::size_t kahn_ordered_ases(const AsGraph& graph) {
  const std::size_t n = graph.size();
  std::vector<std::uint32_t> pending(n, 0);  // customers not yet ordered
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& nb : graph.neighbors(Asn(i))) {
      if (nb.relation == Relation::kCustomer) ++pending[i];
    }
    if (pending[i] == 0) queue.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const auto& nb : graph.neighbors(Asn(queue[head]))) {
      if (nb.relation != Relation::kProvider) continue;
      if (--pending[nb.asn.value()] == 0) queue.push_back(nb.asn.value());
    }
  }
  return queue.size();
}

}  // namespace itm::topology
