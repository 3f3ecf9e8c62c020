#include "cdn/deployment.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace itm::cdn {

using topology::AsType;
using topology::Topology;

Deployment Deployment::build(const Topology& topo,
                             const DeploymentConfig& config, Rng& rng) {
  Deployment d;
  const auto& graph = topo.graph;
  const auto& plan = topo.addresses;

  // Hard capacity checks (asserts vanish in release builds): every off-net
  // deployment strides 16 addresses per hypergiant inside the host's first
  // misc /24.
  if (config.servers_per_offnet > 16 ||
      2 + config.offnet_heavy_hypergiants * 16 > 256) {
    throw std::invalid_argument(
        "DeploymentConfig: servers_per_offnet must be <= 16 and "
        "offnet_heavy_hypergiants <= 15 (off-net /24 capacity)");
  }

  for (std::size_t gi = 0; gi < topo.hypergiants.size(); ++gi) {
    const Asn asn = topo.hypergiants[gi];
    const auto& info = graph.info(asn);
    Hypergiant hg;
    hg.id = HypergiantId(static_cast<std::uint32_t>(gi));
    hg.asn = asn;
    hg.name = info.name;
    const bool deploys_offnets = gi < config.offnet_heavy_hypergiants;
    hg.offnet_hit_ratio = deploys_offnets ? config.offnet_hit_ratio : 0.0;

    // On-net PoPs in every presence city, front ends from the hypergiant's
    // content /24s (round-robin across its range).
    std::uint32_t addr_cursor = 0;
    const auto& addressing = plan.of(asn);
    const auto next_onnet_address = [&]() {
      const std::uint32_t slot = addr_cursor++;
      const std::uint32_t block = slot / 200;  // keep clear of .0/.255 zone
      const std::uint32_t offset = 2 + slot % 200;
      // Trailing content /24s are reserved for service VIPs (services.cpp).
      if (block + kVipReservedSlash24s >= addressing.content_slash24s) {
        throw std::length_error(
            "hypergiant content space exhausted; raise "
            "content_24s_per_hypergiant");
      }
      return plan.content_slash24(asn, block).address_at(offset);
    };
    for (const CityId city : info.presence_cities) {
      Pop pop;
      pop.id = PopId(static_cast<std::uint32_t>(d.pops_.size()));
      pop.owner = hg.id;
      pop.asn = asn;
      pop.city = city;
      pop.offnet = false;
      hg.pops.push_back(pop.id);
      const std::size_t servers =
          std::max<std::size_t>(1, static_cast<std::size_t>(
              config.servers_per_pop * info.size_factor / 4.0));
      for (std::size_t s = 0; s < servers; ++s) {
        FrontEnd fe;
        fe.id = ServerId(static_cast<std::uint32_t>(d.front_ends_.size()));
        fe.owner = hg.id;
        fe.pop = pop.id;
        fe.address = next_onnet_address();
        d.front_ends_.push_back(fe);
      }
      d.pops_.push_back(pop);
    }

    // Off-net caches inside eyeballs, probability growing with eyeball size.
    if (deploys_offnets) {
      for (const Asn access : topo.accesses) {
        const auto& access_info = graph.info(access);
        const double p = std::clamp(
            config.offnet_base * (0.3 + access_info.size_factor), 0.0, 0.95);
        if (!rng.bernoulli(p)) continue;
        Pop pop;
        pop.id = PopId(static_cast<std::uint32_t>(d.pops_.size()));
        pop.owner = hg.id;
        pop.asn = access;
        pop.city = access_info.home_city;
        pop.offnet = true;
        hg.pops.push_back(pop.id);
        const auto& host_addressing = plan.of(access);
        for (std::size_t s = 0; s < config.servers_per_offnet; ++s) {
          FrontEnd fe;
          fe.id = ServerId(static_cast<std::uint32_t>(d.front_ends_.size()));
          fe.owner = hg.id;
          fe.pop = pop.id;
          // Off-net appliances live in the host's misc space; stride by
          // hypergiant so co-resident deployments do not collide.
          const std::uint32_t offset = static_cast<std::uint32_t>(
              2 + gi * 16 + s);
          assert(host_addressing.misc_slash24s > 0);
          (void)host_addressing;
          fe.address = plan.misc_slash24(access, 0).address_at(offset);
          d.front_ends_.push_back(fe);
        }
        d.pops_.push_back(pop);
      }
    }
    d.hypergiants_.push_back(std::move(hg));
  }
  d.build_indexes();
  return d;
}

void Deployment::build_indexes() {
  pop_front_ends_.assign(pops_.size(), {});
  for (const auto& fe : front_ends_) {
    pop_front_ends_[fe.pop.value()].push_back(fe.address);
  }
  offnet_index_.clear();
  for (const auto& pop : pops_) {
    if (pop.offnet) {
      offnet_index_.emplace(
          (std::uint64_t{pop.owner.value()} << 32) | pop.asn.value(),
          pop.id.value());
    }
  }
}

const Hypergiant* Deployment::by_asn(Asn asn) const {
  for (const auto& hg : hypergiants_) {
    if (hg.asn == asn) return &hg;
  }
  return nullptr;
}

const Pop* Deployment::offnet_in(HypergiantId owner, Asn host_as) const {
  const auto it = offnet_index_.find(
      (std::uint64_t{owner.value()} << 32) | host_as.value());
  return it == offnet_index_.end() ? nullptr : &pops_[it->second];
}

Deployment Deployment::without_as(Asn failed) const {
  Deployment out;
  out.hypergiants_ = hypergiants_;
  for (auto& hg : out.hypergiants_) hg.pops.clear();
  std::vector<std::optional<PopId>> remap(pops_.size());
  for (const auto& pop : pops_) {
    if (pop.asn == failed) continue;
    Pop copy = pop;
    copy.id = PopId(static_cast<std::uint32_t>(out.pops_.size()));
    remap[pop.id.value()] = copy.id;
    out.hypergiants_[copy.owner.value()].pops.push_back(copy.id);
    out.pops_.push_back(copy);
  }
  for (const auto& fe : front_ends_) {
    const auto mapped = remap[fe.pop.value()];
    if (!mapped) continue;
    FrontEnd copy = fe;
    copy.id = ServerId(static_cast<std::uint32_t>(out.front_ends_.size()));
    copy.pop = *mapped;
    out.front_ends_.push_back(copy);
  }
  out.build_indexes();
  return out;
}

}  // namespace itm::cdn
