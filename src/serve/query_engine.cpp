#include "serve/query_engine.h"

#include <algorithm>
#include <limits>

#include "obs/resource.h"
#include "serve/format.h"
#include "serve/reply.h"
#include "topology/as_graph.h"

namespace itm::serve {

namespace {

std::optional<std::uint32_t> parse_u32(std::string_view token) {
  const auto value =
      parse_u64(token, std::numeric_limits<std::uint32_t>::max());
  if (!value) return std::nullopt;
  return static_cast<std::uint32_t>(*value);
}

template <typename T>
std::vector<T> first_k(const std::vector<T>& ranked, std::size_t k) {
  const auto n = static_cast<std::ptrdiff_t>(std::min(k, ranked.size()));
  return {ranked.begin(), ranked.begin() + n};
}

// Appends a ranking as " id:score,id:score...", or " none".
template <typename Id>
void append_ranked(std::string& out,
                   const std::vector<std::pair<Id, double>>& ranked) {
  if (ranked.empty()) append(out, " none");
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    append(out, i ? ',' : ' ', ranked[i].first.value(), ':',
           ranked[i].second);
  }
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
    const AsRecord as = view_.ases[i];
    total_activity_ += as.activity;
    if (as.is_client()) ++client_ases_;
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

std::size_t QueryEngine::find_country(std::uint32_t id) const {
  const std::size_t c = span_lower_bound(
      view_.countries,
      [id](const CountryRecord& rec) { return rec.country < id; });
  if (c == view_.countries.size() || view_.countries[c].country != id) {
    return kNone;
  }
  return c;
}

QueryEngine::Rollups QueryEngine::build_rollups() const {
  Rollups r;
  // Mapping entries name few distinct front ends, in long runs; the run
  // check skips most entries before the binary search.
  r.front_ends.resize(view_.mappings.size());
  for (std::size_t m = 0; m < view_.mappings.size(); ++m) {
    const auto& entries = view_.mappings[m].entries;
    auto& front_ends = r.front_ends[m];
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const std::uint32_t address = entries[e].address;
      if (e > 0 && entries[e - 1].address == address) continue;
      const auto at =
          std::lower_bound(front_ends.begin(), front_ends.end(), address);
      if (at == front_ends.end() || *at != address) {
        front_ends.insert(at, address);
      }
    }
  }

  const auto by_score_then_key = [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  r.countries.resize(view_.countries.size());
  for (std::size_t i = 0; i < view_.ases.size(); ++i) {
    const AsRecord as = view_.ases[i];
    if (as.activity > 0) r.top_ases.emplace_back(Asn(as.asn), as.activity);
    const std::size_t c = find_country(as.country);
    if (c == kNone) continue;
    Rollups::CountryTotals& totals = r.countries[c];
    totals.activity += as.activity;
    if (as.is_client()) ++totals.client_ases;
    totals.endpoints += endpoints_by_as_[i];
  }
  std::sort(r.top_ases.begin(), r.top_ases.end(), by_score_then_key);
  r.top_countries.reserve(view_.countries.size());
  for (std::size_t c = 0; c < view_.countries.size(); ++c) {
    r.top_countries.emplace_back(CountryId(view_.countries[c].country),
                                 r.countries[c].activity);
  }
  std::sort(r.top_countries.begin(), r.top_countries.end(), by_score_then_key);
  return r;
}

const QueryEngine::Rollups& QueryEngine::rollups() const {
  std::call_once(rollups_once_, [this] { rollups_ = build_rollups(); });
  return rollups_;
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
      if (idx != kNone) {
        const AsRecord as = view_.ases[idx];
        answer.activity = as.activity;
        answer.origin_name = view_.strings[as.name_ref];
      }
    }
  }
  // ECS mappings are keyed by /24 — the sweep granularity — regardless of
  // the detected client prefix's length.
  answer.serving.reserve(view_.mappings.size());
  const Ipv4Prefix key(address, 24);
  const auto wanted = std::pair{key.base().bits(), std::uint32_t{24}};
  const auto is_wanted = [&wanted](const MappingEntry& entry) {
    return entry.prefix_base == wanted.first &&
           entry.prefix_length == wanted.second;
  };
  // The sweeps usually cover the same /24s for every service, so the
  // entry one mapping holds for the key sits at the same index in the
  // next: try that index before a search (keys are unique per mapping).
  std::size_t hint = 0;
  for (const ServiceMappingView& mapping : view_.mappings) {
    std::size_t e = hint;
    if (e >= mapping.entries.size() || !is_wanted(mapping.entries[e])) {
      e = span_lower_bound(
          mapping.entries, [&wanted](const MappingEntry& entry) {
            return std::pair{entry.prefix_base, entry.prefix_length} < wanted;
          });
    }
    hint = e;
    if (e == mapping.entries.size()) continue;
    const MappingEntry entry = mapping.entries[e];
    if (is_wanted(entry)) {
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
    answer.origin_name = std::nullopt;
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
  const auto& front_ends = rollups().front_ends;
  for (std::size_t m = 0; m < front_ends.size(); ++m) {
    const bool affected = std::any_of(
        front_ends[m].begin(), front_ends[m].end(), [&inside](std::uint32_t a) {
          return std::binary_search(inside.begin(), inside.end(), a);
        });
    if (affected) {
      impact.services_served_from.push_back(
          ServiceId(view_.mappings[m].service));
    }
  }
  // Mappings are service-ascending, so the vector is already sorted the way
  // TrafficMap::outage_impact sorts it.
  return impact;
}

std::optional<QueryEngine::CountryAnswer> QueryEngine::country(
    CountryId id) const {
  const std::size_t c = find_country(id.value());
  if (c == kNone) return std::nullopt;
  const Rollups::CountryTotals& totals = rollups().countries[c];
  CountryAnswer answer;
  answer.country = id;
  answer.name = view_.strings[view_.countries[c].name_ref];
  answer.client_ases = totals.client_ases;
  answer.activity = totals.activity;
  answer.endpoints = totals.endpoints;
  return answer;
}

std::vector<std::pair<Asn, double>> QueryEngine::top_ases(
    std::size_t k) const {
  return first_k(rollups().top_ases, k);
}

std::vector<std::pair<CountryId, double>> QueryEngine::top_countries(
    std::size_t k) const {
  return first_k(rollups().top_countries, k);
}

void QueryEngine::append_point(std::string& out,
                               const PointAnswer& answer) {
  append(out, " prefix=");
  if (answer.client_prefix) {
    append(out, *answer.client_prefix);
  } else {
    append(out, "none");
  }
  append(out, " as=");
  if (answer.origin) {
    append(out, answer.origin->value());
    if (answer.origin_name) append(out, " name=", *answer.origin_name);
  } else {
    append(out, "none");
  }
  append(out, " activity=", answer.activity, " serving=");
  if (answer.serving.empty()) append(out, "none");
  for (std::size_t i = 0; i < answer.serving.size(); ++i) {
    if (i) append(out, ',');
    append(out, answer.serving[i].first, '@', answer.serving[i].second);
  }
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
  std::string_view rest = line;
  const std::string_view verb = next_token(rest);
  if (verb.empty()) return "error: empty query";
  const std::string_view arg = next_token(rest);
  // The verbs take no argument (stats) or exactly one (the rest).
  const bool no_arg = arg.empty();
  const bool one_arg = !no_arg && next_token(rest).empty();

  // Replies are built in one buffer per thread, which keeps its capacity
  // from answer to answer, and returned as exact-size copies: a caller
  // that keeps replies (the answer cache, a reference plan) holds no
  // slack.
  thread_local std::string out;
  out.clear();
  if (verb == "lookup" && one_arg) {
    const auto addr = Ipv4Addr::parse(arg);
    if (!addr) return "error: bad address '" + std::string(arg) + "'";
    append(out, "lookup ", arg);
    append_point(out, lookup(*addr));
    return out;
  }
  if (verb == "prefix" && one_arg) {
    const auto prefix = Ipv4Prefix::parse(arg);
    if (!prefix) return "error: bad prefix '" + std::string(arg) + "'";
    append(out, "prefix ", arg);
    append_point(out, lookup(*prefix));
    return out;
  }
  if (verb == "as" && one_arg) {
    const auto asn = parse_u32(arg);
    if (!asn) return "error: bad asn '" + std::string(arg) + "'";
    const auto answer = as_answer(Asn(*asn));
    if (!answer) return "error: unknown as " + std::string(arg);
    append(out, "as ", answer->asn.value(), " name=", answer->name,
           " country=", answer->country.value(), " type=",
           as_type_name(answer->type), " activity=", answer->activity,
           " client=", answer->is_client ? '1' : '0', " endpoints=",
           answer->endpoints_inside);
    return out;
  }
  if (verb == "outage" && one_arg) {
    const auto asn = parse_u32(arg);
    if (!asn) return "error: bad asn '" + std::string(arg) + "'";
    const auto impact = outage(Asn(*asn));
    if (!impact) return "error: unknown as " + std::string(arg);
    append(out, "outage ", *asn, " activity_share=", impact->activity_share,
           " client_prefixes=", impact->client_prefixes,
           " servers_inside=", impact->servers_inside, " services=");
    const auto& services = impact->services_served_from;
    if (services.empty()) append(out, "none");
    for (std::size_t i = 0; i < services.size(); ++i) {
      if (i) append(out, ',');
      append(out, services[i].value());
    }
    return out;
  }
  if (verb == "country" && one_arg) {
    const auto id = parse_u32(arg);
    if (!id) return "error: bad country '" + std::string(arg) + "'";
    const auto answer = country(CountryId(*id));
    if (!answer) return "error: unknown country " + std::string(arg);
    append(out, "country ", answer->country.value(), " name=", answer->name,
           " client_ases=", answer->client_ases, " activity=",
           answer->activity, " endpoints=", answer->endpoints);
    return out;
  }
  if ((verb == "top-as" || verb == "top-country") && one_arg) {
    const auto k = parse_u64(arg);
    if (!k || *k == 0) return "error: bad count '" + std::string(arg) + "'";
    append(out, verb, ' ', *k, " =");
    if (verb == "top-as") {
      append_ranked(out, top_ases(static_cast<std::size_t>(*k)));
    } else {
      append_ranked(out, top_countries(static_cast<std::size_t>(*k)));
    }
    return out;
  }
  if (verb == "stats" && no_arg) {
    append(out, "stats ases=", view_.ases.size(), " client_ases=",
           client_ases_, " client_prefixes=", view_.prefixes.size(),
           " endpoints=", view_.endpoints.size(), " services=",
           view_.mappings.size(), " recommended_links=", view_.links.size(),
           " observed_links=", view_.observed_links, " addresses_probed=",
           view_.addresses_probed, " total_activity=", total_activity_,
           " seed=", view_.seed);
    return out;
  }
  return "error: unknown query '" + line + "'";
}

}  // namespace itm::serve
