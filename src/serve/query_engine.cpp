#include "serve/query_engine.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "obs/resource.h"
#include "serve/format.h"
#include "topology/as_graph.h"

namespace itm::serve {

namespace {

// Protocol number formatting: shortest-round-trip-ish general format, the
// same precision the JSON exporter uses. Pure function of the double.
std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

// Strict unsigned parse: the whole token must be digits.
std::optional<std::uint64_t> parse_u64(std::string_view token) {
  if (token.empty() || token.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

const char* as_type_name(std::uint32_t type) {
  if (type > static_cast<std::uint32_t>(topology::AsType::kEnterprise)) {
    return "unknown";
  }
  return topology::to_string(static_cast<topology::AsType>(type));
}

}  // namespace

QueryEngine::QueryEngine(SnapshotView view, std::size_t cache_capacity)
    : view_(std::move(view)), cache_(cache_capacity) {
  // Activity total in record (ASN-ascending) order — the same accumulation
  // order as TrafficMap::total_activity over its key-sorted estimate, so
  // the float result is bit-equal.
  for (std::size_t i = 0; i < view_.ases.size(); ++i) {
    total_activity_ += view_.ases[i].activity;
  }

  endpoints_by_as_.assign(view_.ases.size(), 0);
  operator_endpoints_by_as_.assign(view_.ases.size(), {});
  client_prefixes_by_as_.assign(view_.ases.size(), 0);
  for (std::size_t i = 0; i < view_.endpoints.size(); ++i) {
    const EndpointRecord ep = view_.endpoints[i];
    const std::size_t idx = find_as(ep.origin_asn);
    if (idx == kNone) continue;
    ++endpoints_by_as_[idx];
    if (ep.operator_ref != kNoRef) {
      operator_endpoints_by_as_[idx].push_back(ep.address);
    }
  }
  // Endpoint records are address-sorted, so the per-AS address lists arrive
  // sorted; keep that invariant explicit for the binary searches below.
  for (auto& addrs : operator_endpoints_by_as_) {
    std::sort(addrs.begin(), addrs.end());
  }
  for (std::size_t i = 0; i < view_.prefixes.size(); ++i) {
    const PrefixRecord prefix = view_.prefixes[i];
    if (prefix.origin_asn == kNoRef) continue;
    const std::size_t idx = find_as(prefix.origin_asn);
    if (idx != kNone) ++client_prefixes_by_as_[idx];
  }
}

std::size_t QueryEngine::find_as(std::uint32_t asn) const {
  const std::size_t i = span_lower_bound(
      view_.ases, [asn](const AsRecord& rec) { return rec.asn < asn; });
  if (i == view_.ases.size() || view_.ases[i].asn != asn) return kNone;
  return i;
}

std::optional<PrefixRecord> QueryEngine::find_covering_prefix(
    Ipv4Addr address) const {
  // Records are (base, length)-sorted and pairwise disjoint, so the only
  // candidate container is the last record with base <= address.
  const std::uint32_t bits = address.bits();
  const std::size_t i = span_lower_bound(
      view_.prefixes,
      [bits](const PrefixRecord& rec) { return rec.base <= bits; });
  if (i == 0) return std::nullopt;
  const PrefixRecord candidate = view_.prefixes[i - 1];
  if (!candidate.prefix().contains(address)) return std::nullopt;
  return candidate;
}

QueryEngine::PointAnswer QueryEngine::lookup(Ipv4Addr address) const {
  PointAnswer answer;
  if (const auto rec = find_covering_prefix(address)) {
    answer.client_prefix = rec->prefix();
    if (rec->origin_asn != kNoRef) {
      answer.origin = Asn(rec->origin_asn);
      const std::size_t idx = find_as(rec->origin_asn);
      if (idx != kNone) answer.activity = view_.ases[idx].activity;
    }
  }
  // ECS mappings are keyed by /24 — the sweep granularity — regardless of
  // the detected client prefix's length.
  const Ipv4Prefix key(address, 24);
  const auto wanted = std::pair{key.base().bits(), std::uint32_t{24}};
  for (const ServiceMappingView& mapping : view_.mappings) {
    const std::size_t e = span_lower_bound(
        mapping.entries, [&wanted](const MappingEntry& entry) {
          return std::pair{entry.prefix_base, entry.prefix_length} < wanted;
        });
    if (e == mapping.entries.size()) continue;
    const MappingEntry entry = mapping.entries[e];
    if (entry.prefix_base == wanted.first &&
        entry.prefix_length == wanted.second) {
      answer.serving.emplace_back(mapping.service, Ipv4Addr(entry.address));
    }
  }
  return answer;
}

QueryEngine::PointAnswer QueryEngine::lookup(const Ipv4Prefix& prefix) const {
  PointAnswer answer = lookup(prefix.base());
  // Exact-prefix semantics: only report a client prefix on an exact match.
  if (answer.client_prefix && *answer.client_prefix != prefix) {
    answer.client_prefix = std::nullopt;
    answer.origin = std::nullopt;
    answer.activity = 0.0;
  }
  return answer;
}

std::optional<QueryEngine::AsAnswer> QueryEngine::as_answer(Asn asn) const {
  const std::size_t idx = find_as(asn.value());
  if (idx == kNone) return std::nullopt;
  const AsRecord rec = view_.ases[idx];
  AsAnswer answer;
  answer.asn = asn;
  answer.name = view_.strings[rec.name_ref];
  answer.country = CountryId(rec.country);
  answer.type = rec.type;
  answer.activity = rec.activity;
  answer.is_client = rec.is_client();
  answer.endpoints_inside = endpoints_by_as_[idx];
  return answer;
}

std::optional<core::OutageImpact> QueryEngine::outage(Asn failed) const {
  const std::size_t idx = find_as(failed.value());
  if (idx == kNone) return std::nullopt;
  const AsRecord rec = view_.ases[idx];
  core::OutageImpact impact;
  if (total_activity_ > 0) {
    impact.activity_share = rec.activity / total_activity_;
  }
  impact.client_prefixes = client_prefixes_by_as_[idx];
  const auto& inside = operator_endpoints_by_as_[idx];
  impact.servers_inside = inside.size();
  for (const ServiceMappingView& mapping : view_.mappings) {
    bool affected = false;
    for (std::size_t e = 0; e < mapping.entries.size() && !affected; ++e) {
      affected = std::binary_search(inside.begin(), inside.end(),
                                    mapping.entries[e].address);
    }
    if (affected) {
      impact.services_served_from.push_back(ServiceId(mapping.service));
    }
  }
  // Mappings are service-ascending, so the vector is already sorted the way
  // TrafficMap::outage_impact sorts it.
  return impact;
}

std::optional<QueryEngine::CountryAnswer> QueryEngine::country(
    CountryId id) const {
  const std::uint32_t wanted = id.value();
  const std::size_t c = span_lower_bound(
      view_.countries,
      [wanted](const CountryRecord& rec) { return rec.country < wanted; });
  if (c == view_.countries.size() || view_.countries[c].country != wanted) {
    return std::nullopt;
  }
  CountryAnswer answer;
  answer.country = id;
  answer.name = view_.strings[view_.countries[c].name_ref];
  for (std::size_t i = 0; i < view_.ases.size(); ++i) {
    const AsRecord as = view_.ases[i];
    if (as.country != wanted) continue;
    answer.activity += as.activity;
    if (as.is_client()) ++answer.client_ases;
    answer.endpoints += endpoints_by_as_[i];
  }
  return answer;
}

std::vector<std::pair<Asn, double>> QueryEngine::top_ases(
    std::size_t k) const {
  std::vector<std::pair<Asn, double>> ranked;
  for (std::size_t i = 0; i < view_.ases.size(); ++i) {
    const AsRecord as = view_.ases[i];
    if (as.activity > 0) ranked.emplace_back(Asn(as.asn), as.activity);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

std::vector<std::pair<CountryId, double>> QueryEngine::top_countries(
    std::size_t k) const {
  std::vector<std::pair<CountryId, double>> ranked;
  ranked.reserve(view_.countries.size());
  for (std::size_t c = 0; c < view_.countries.size(); ++c) {
    const std::uint32_t country = view_.countries[c].country;
    double total = 0.0;
    for (std::size_t i = 0; i < view_.ases.size(); ++i) {
      const AsRecord as = view_.ases[i];
      if (as.country == country) total += as.activity;
    }
    ranked.emplace_back(CountryId(country), total);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

std::string QueryEngine::format_point(const PointAnswer& answer) const {
  std::ostringstream os;
  os << "prefix="
     << (answer.client_prefix ? answer.client_prefix->to_string() : "none");
  os << " as=";
  if (answer.origin) {
    os << answer.origin->value();
    const std::size_t idx = find_as(answer.origin->value());
    if (idx != kNone) {
      os << " name=" << view_.strings[view_.ases[idx].name_ref];
    }
  } else {
    os << "none";
  }
  os << " activity=" << fmt(answer.activity) << " serving=";
  if (answer.serving.empty()) {
    os << "none";
  } else {
    for (std::size_t i = 0; i < answer.serving.size(); ++i) {
      if (i) os << ",";
      os << answer.serving[i].first << "@"
         << answer.serving[i].second.to_string();
    }
  }
  return os.str();
}

void QueryEngine::answer_batch(std::vector<std::string>& lines,
                               net::Executor& executor,
                               obs::QuantileHistogram& latency) const {
  // Pass 1, in input order: a hit takes the cached answer; a miss reserves
  // its entry, evicting exactly as one line at a time would. A hit on an
  // entry reserved by an earlier miss of this batch copies that line's
  // answer once pass 2 has computed it.
  std::vector<std::string> replies(lines.size());
  std::vector<std::size_t> copy_of(lines.size(), kNone);
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const obs::Stopwatch watch;
    if (auto hit = cache_.get(lines[i])) {
      replies[i] = std::move(hit->text);
      copy_of[i] = hit->pending;
      latency.observe(watch.elapsed_us());
    } else {
      misses.push_back(i);
      cache_.put(lines[i], CachedAnswer{std::string(), i});
    }
  }
  // Pass 2: the misses, in parallel; each writes only its own reply. A
  // lone miss (an interactive client's line) skips the executor.
  const auto compute = [this, &lines, &replies, &misses, &latency](
                           std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const obs::ScopedLatencyUs timer(latency);
      replies[misses[k]] = answer(lines[misses[k]]);
    }
  };
  if (misses.size() == 1) {
    compute(0, 1);
  } else {
    executor.parallel_for(misses.size(),
                          [&compute](const net::Executor::Shard& s) {
                            compute(s.begin, s.end);
                          });
  }
  // Pass 3: fill the reserved entries still cached, then the repeats.
  for (const std::size_t i : misses) {
    CachedAnswer* entry = cache_.peek(lines[i]);
    if (entry != nullptr && entry->pending == i) {
      *entry = CachedAnswer{replies[i], kNone};
    }
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (copy_of[i] != kNone) replies[i] = replies[copy_of[i]];
  }
  lines = std::move(replies);
}

QueryEngine::CacheCounts QueryEngine::cache_counts() const {
  return {cache_.hits(), cache_.misses(), cache_.evictions()};
}

std::string QueryEngine::answer(const std::string& line) const {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return "error: empty query";
  const std::string& verb = tokens[0];

  if (verb == "lookup" && tokens.size() == 2) {
    const auto addr = Ipv4Addr::parse(tokens[1]);
    if (!addr) return "error: bad address '" + tokens[1] + "'";
    return "lookup " + tokens[1] + " " + format_point(lookup(*addr));
  }
  if (verb == "prefix" && tokens.size() == 2) {
    const auto prefix = Ipv4Prefix::parse(tokens[1]);
    if (!prefix) return "error: bad prefix '" + tokens[1] + "'";
    return "prefix " + tokens[1] + " " + format_point(lookup(*prefix));
  }
  if (verb == "as" && tokens.size() == 2) {
    const auto asn = parse_u64(tokens[1]);
    if (!asn) return "error: bad asn '" + tokens[1] + "'";
    const auto answer = as_answer(Asn(static_cast<std::uint32_t>(*asn)));
    if (!answer) return "error: unknown as " + tokens[1];
    std::ostringstream os;
    os << "as " << answer->asn.value() << " name=" << answer->name
       << " country=" << answer->country.value() << " type="
       << as_type_name(answer->type) << " activity=" << fmt(answer->activity)
       << " client=" << (answer->is_client ? 1 : 0) << " endpoints="
       << answer->endpoints_inside;
    return os.str();
  }
  if (verb == "outage" && tokens.size() == 2) {
    const auto asn = parse_u64(tokens[1]);
    if (!asn) return "error: bad asn '" + tokens[1] + "'";
    const auto impact = outage(Asn(static_cast<std::uint32_t>(*asn)));
    if (!impact) return "error: unknown as " + tokens[1];
    std::ostringstream os;
    os << "outage " << *asn << " activity_share="
       << fmt(impact->activity_share) << " client_prefixes="
       << impact->client_prefixes << " servers_inside="
       << impact->servers_inside << " services=";
    if (impact->services_served_from.empty()) {
      os << "none";
    } else {
      for (std::size_t i = 0; i < impact->services_served_from.size(); ++i) {
        if (i) os << ",";
        os << impact->services_served_from[i].value();
      }
    }
    return os.str();
  }
  if (verb == "country" && tokens.size() == 2) {
    const auto id = parse_u64(tokens[1]);
    if (!id) return "error: bad country '" + tokens[1] + "'";
    const auto answer = country(CountryId(static_cast<std::uint32_t>(*id)));
    if (!answer) return "error: unknown country " + tokens[1];
    std::ostringstream os;
    os << "country " << answer->country.value() << " name=" << answer->name
       << " client_ases=" << answer->client_ases << " activity="
       << fmt(answer->activity) << " endpoints=" << answer->endpoints;
    return os.str();
  }
  if ((verb == "top-as" || verb == "top-country") && tokens.size() == 2) {
    const auto k = parse_u64(tokens[1]);
    if (!k || *k == 0) return "error: bad count '" + tokens[1] + "'";
    std::ostringstream os;
    os << verb << " " << *k << " =";
    if (verb == "top-as") {
      const auto ranked = top_ases(static_cast<std::size_t>(*k));
      if (ranked.empty()) os << " none";
      for (std::size_t i = 0; i < ranked.size(); ++i) {
        os << (i ? "," : " ") << ranked[i].first.value() << ":"
           << fmt(ranked[i].second);
      }
    } else {
      const auto ranked = top_countries(static_cast<std::size_t>(*k));
      if (ranked.empty()) os << " none";
      for (std::size_t i = 0; i < ranked.size(); ++i) {
        os << (i ? "," : " ") << ranked[i].first.value() << ":"
           << fmt(ranked[i].second);
      }
    }
    return os.str();
  }
  if (verb == "stats" && tokens.size() == 1) {
    std::size_t client_ases = 0;
    for (std::size_t i = 0; i < view_.ases.size(); ++i) {
      if (view_.ases[i].is_client()) ++client_ases;
    }
    std::ostringstream os;
    os << "stats ases=" << view_.ases.size() << " client_ases=" << client_ases
       << " client_prefixes=" << view_.prefixes.size() << " endpoints="
       << view_.endpoints.size() << " services=" << view_.mappings.size()
       << " recommended_links=" << view_.links.size() << " observed_links="
       << view_.observed_links << " addresses_probed="
       << view_.addresses_probed << " total_activity="
       << fmt(total_activity_) << " seed=" << view_.seed;
    return os.str();
  }
  return "error: unknown query '" + line + "'";
}

}  // namespace itm::serve
