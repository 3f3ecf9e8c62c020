#include "traffic/user_base.h"

#include <algorithm>
#include <cmath>

namespace itm::traffic {

UserBase UserBase::build(const topology::Topology& topo,
                         const UserBaseConfig& config, Rng& rng) {
  UserBase ub;
  const auto& graph = topo.graph;
  const auto& geo = topo.geography;
  ub.as_users_.assign(graph.size(), 0.0);
  ub.as_activity_.assign(graph.size(), 0.0);

  // Country-level public-DNS adoption (clamped logit-ish spread).
  ub.country_public_dns_.reserve(geo.countries().size());
  for (std::size_t c = 0; c < geo.countries().size(); ++c) {
    ub.country_public_dns_.push_back(std::clamp(
        config.public_dns_mean +
            rng.normal(0.0, config.public_dns_country_spread),
        0.05, 0.8));
  }

  for (const Asn asn : topo.accesses) {
    const auto& info = graph.info(asn);
    const auto& addressing = topo.addresses.of(asn);
    const double country_adoption =
        ub.country_public_dns_[info.country.value()];

    // Users cluster in the AS's presence cities, weighted by city size.
    const auto& presence = info.presence_cities;
    std::vector<double> city_weights;
    city_weights.reserve(presence.size());
    for (const CityId city : presence) {
      city_weights.push_back(geo.city(city).population_weight + 0.01);
    }

    const double density = std::pow(std::max(0.05, info.size_factor),
                                    config.density_exponent);
    for (std::uint32_t i = 0; i < addressing.user_slash24s; ++i) {
      UserPrefix up;
      up.prefix = topo.addresses.user_slash24(asn, i);
      up.asn = asn;
      up.city = presence[rng.weighted_index(city_weights)];
      up.users = std::min(
          250.0,
          density * rng.lognormal(config.users_mu, config.users_sigma));
      up.activity =
          up.users * rng.lognormal(0.0, config.intensity_sigma);
      up.public_dns_share = std::clamp(
          country_adoption + rng.normal(0.0, 0.05), 0.0, 0.95);
      up.chromium_share = std::clamp(
          config.chromium_mean + rng.normal(0.0, config.chromium_spread),
          0.2, 0.95);

      ub.total_users_ += up.users;
      ub.total_activity_ += up.activity;
      ub.as_users_[asn.value()] += up.users;
      ub.as_activity_[asn.value()] += up.activity;
      ub.prefixes_.push_back(up);
    }
  }
  ub.finalize_index();
  return ub;
}

UserBase UserBase::without_as(Asn excluded) const {
  UserBase out;
  out.as_users_.assign(as_users_.size(), 0.0);
  out.as_activity_.assign(as_activity_.size(), 0.0);
  out.country_public_dns_ = country_public_dns_;
  for (const auto& up : prefixes_) {
    if (up.asn == excluded) continue;
    out.prefixes_.push_back(up);
    out.total_users_ += up.users;
    out.total_activity_ += up.activity;
    out.as_users_[up.asn.value()] += up.users;
    out.as_activity_[up.asn.value()] += up.activity;
  }
  out.finalize_index();
  return out;
}

void UserBase::finalize_index() {
  index_.clear();
  index_.reserve(prefixes_.size());
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    index_.emplace_back(prefixes_[i].prefix.base().bits(),
                        static_cast<std::uint32_t>(i));
  }
  std::sort(index_.begin(), index_.end());
}

const UserPrefix* UserBase::find(const Ipv4Prefix& slash24) const {
  // User prefixes are exactly the /24s the generator allocated; any other
  // mask length cannot be a user prefix.
  if (slash24.length() != 24) return nullptr;
  const auto it = std::lower_bound(
      index_.begin(), index_.end(),
      std::pair<std::uint32_t, std::uint32_t>{slash24.base().bits(), 0});
  if (it == index_.end() || it->first != slash24.base().bits()) return nullptr;
  return &prefixes_[it->second];
}

}  // namespace itm::traffic
