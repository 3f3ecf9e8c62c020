#include "streams.h"

#include <numeric>
#include <sstream>
#include <stdexcept>

#include "cdn/services.h"
#include "net/ipv4.h"
#include "serve/delta.h"
#include "serve/snapshot_writer.h"

namespace perfbench {

namespace {

std::string address_in(const itm::serve::PrefixRecord& prefix,
                       itm::Rng& rng) {
  // A host inside the prefix's first /24: every client prefix is at most
  // that wide, and shorter ones still cover it.
  const std::uint32_t span =
      prefix.length >= 24 ? (1u << (32 - prefix.length)) : 256u;
  return itm::Ipv4Addr(prefix.base + static_cast<std::uint32_t>(
                                         rng.next_below(span)))
      .to_string();
}

// A seed-shuffled order of 0..n-1: rank r of a Zipf draw maps to key
// order[r], so the hot set differs per seed.
std::vector<std::size_t> shuffled(std::size_t n, itm::Rng rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  return order;
}

}  // namespace

std::vector<std::string> lookup_stream(const itm::serve::Snapshot& snap,
                                       std::uint64_t seed, std::size_t count) {
  if (snap.prefixes.empty()) throw std::runtime_error("snapshot has no prefixes");
  itm::Rng rng = itm::Rng(seed).split("lookup-stream");
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& prefix = snap.prefixes[rng.next_below(snap.prefixes.size())];
    lines.push_back("lookup " + address_in(prefix, rng));
  }
  return lines;
}

std::vector<std::string> mixed_stream(const itm::serve::Snapshot& snap,
                                      std::uint64_t seed, std::size_t count) {
  if (snap.prefixes.empty() || snap.ases.empty() || snap.countries.empty()) {
    throw std::runtime_error("snapshot too small for the mixed stream");
  }
  const itm::Rng root = itm::Rng(seed).split("mixed-stream");
  const auto prefix_order = shuffled(snap.prefixes.size(), root.split(1));
  const auto as_order = shuffled(snap.ases.size(), root.split(2));
  const auto country_order = shuffled(snap.countries.size(), root.split(3));
  const double exponent = itm::cdn::ServiceCatalogConfig{}.longtail_zipf;
  const itm::ZipfSampler prefix_zipf(prefix_order.size(), exponent);
  const itm::ZipfSampler as_zipf(as_order.size(), exponent);
  const itm::ZipfSampler country_zipf(country_order.size(), exponent);
  const auto as_key = [&](itm::Rng& rng) {
    return std::to_string(snap.ases[as_order[as_zipf.sample(rng)]].asn);
  };

  itm::Rng rng = root.split(4);
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t pick = rng.next_below(100);
    if (pick < 70) {
      if (rng.next_below(20) == 0) {
        lines.push_back("lookup " +
                        itm::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())).to_string());
      } else {
        lines.push_back("lookup " +
                        address_in(snap.prefixes[prefix_order[prefix_zipf.sample(rng)]], rng));
      }
    } else if (pick < 80) {
      lines.push_back("as " + as_key(rng));
    } else if (pick < 88) {
      lines.push_back("outage " + as_key(rng));
    } else if (pick < 93) {
      lines.push_back(
          "country " +
          std::to_string(snap.countries[country_order[country_zipf.sample(rng)]].country));
    } else if (pick < 97) {
      lines.push_back("top-as " + std::to_string(1 + rng.next_below(20)));
    } else if (pick < 99) {
      lines.push_back("top-country " + std::to_string(1 + rng.next_below(8)));
    } else {
      lines.push_back("stats");
    }
  }
  return lines;
}

std::vector<std::string> snapshot_chain(const itm::serve::Snapshot& base,
                                        std::uint64_t seed,
                                        std::size_t length) {
  if (base.ases.empty()) throw std::runtime_error("snapshot has no ASes");
  itm::Rng rng = itm::Rng(seed).split("delta-chain");
  std::vector<std::string> chain;
  chain.reserve(length);
  itm::serve::Snapshot snap = base;
  for (std::size_t k = 0; k < length; ++k) {
    if (k > 0) {
      snap.addresses_probed += 4096;
      snap.ases[rng.next_below(snap.ases.size())].activity *= 1.25;
    }
    std::ostringstream os;
    itm::serve::write_snapshot(snap, os);
    chain.push_back(std::move(os).str());
  }
  return chain;
}

std::vector<std::string> chain_deltas(const std::vector<std::string>& chain) {
  std::vector<std::string> deltas;
  deltas.reserve(chain.size());
  for (std::size_t k = 0; k < chain.size(); ++k) {
    std::string error;
    auto delta = itm::serve::diff_snapshots(chain[k],
                                            chain[(k + 1) % chain.size()], &error);
    if (!delta) throw std::runtime_error("delta chain: " + error);
    deltas.push_back(std::move(*delta));
  }
  return deltas;
}

}  // namespace perfbench
