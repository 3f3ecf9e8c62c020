// Ground-truth user population: who is behind every user /24.
//
// This is the hidden variable every measurement technique in the paper tries
// to recover: which prefixes host users, how many, where they are, and how
// active they are. It also carries per-prefix behavioral attributes that
// bias measurements in realistic ways (public-DNS adoption varies by
// country, Chromium browser share varies by prefix).
#pragma once

#include <span>
#include <vector>

#include "net/ids.h"
#include "net/ipv4.h"
#include "net/rng.h"
#include "topology/generator.h"

namespace itm::traffic {

struct UserPrefix {
  Ipv4Prefix prefix;
  Asn asn{0};
  CityId city{0};
  // Number of users in the /24.
  double users = 0.0;
  // Relative traffic-activity weight (users x per-capita intensity).
  double activity = 0.0;
  // Fraction of the prefix's DNS queries sent to the public resolver.
  double public_dns_share = 0.0;
  // Fraction of browser sessions that are Chromium-based.
  double chromium_share = 0.0;
};

struct UserBaseConfig {
  // Lognormal parameters for users per /24 (median ~= e^mu).
  double users_mu = 4.6;  // ~100 users median
  double users_sigma = 0.45;
  // Larger ISPs utilize their address space more densely (CGNAT, tighter
  // allocation): per-/24 users scale with size_factor^density_exponent.
  // This is what makes per-AS cache-hit *rates* track subscriber counts
  // (Figure 2), not just hit counts.
  double density_exponent = 0.75;
  // Lognormal sigma of per-capita activity intensity.
  double intensity_sigma = 0.35;
  // Mean public-DNS adoption; actual adoption varies by country.
  double public_dns_mean = 0.32;
  double public_dns_country_spread = 0.15;
  // Mean Chromium share and per-prefix spread.
  double chromium_mean = 0.7;
  double chromium_spread = 0.1;
};

class UserBase {
 public:
  static UserBase build(const topology::Topology& topo,
                        const UserBaseConfig& config, Rng& rng);

  [[nodiscard]] std::span<const UserPrefix> all() const { return prefixes_; }
  [[nodiscard]] std::size_t size() const { return prefixes_.size(); }

  // Lookup by exact /24 (nullptr when the prefix hosts no users).
  [[nodiscard]] const UserPrefix* find(const Ipv4Prefix& slash24) const;

  [[nodiscard]] double total_users() const { return total_users_; }
  [[nodiscard]] double total_activity() const { return total_activity_; }

  // Per-AS aggregates (zero for ASes without users).
  [[nodiscard]] double as_users(Asn asn) const {
    return as_users_[asn.value()];
  }
  [[nodiscard]] double as_activity(Asn asn) const {
    return as_activity_[asn.value()];
  }

  // Country-level public DNS adoption actually generated.
  [[nodiscard]] double country_public_dns(CountryId country) const {
    return country_public_dns_.at(country.value());
  }

  // A copy with every prefix of `excluded` removed (aggregates rebuilt);
  // used for what-if analysis. All other prefixes keep their exact values.
  [[nodiscard]] UserBase without_as(Asn excluded) const;

 private:
  // Rebuilds index_ from prefixes_ (call after the prefix list stops
  // changing).
  void finalize_index();

  std::vector<UserPrefix> prefixes_;
  // Flat /24-base -> prefixes_ slot, sorted by base for binary search: one
  // contiguous allocation instead of a node-per-entry hash map (user /24s
  // are the largest substrate collection; DESIGN.md decision #10).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> index_;
  std::vector<double> as_users_;
  std::vector<double> as_activity_;
  std::vector<double> country_public_dns_;
  double total_users_ = 0.0;
  double total_activity_ = 0.0;
};

}  // namespace itm::traffic
