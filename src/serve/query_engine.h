// Deterministic query engine over a loaded `.itms` snapshot.
//
// Answers the paper's §2.1 map questions — point lookups (address/prefix →
// origin AS, activity, serving front ends), outage impact, and country/AS
// rollups — from the compiled snapshot alone, with no scenario or builder
// state. Answers are exact: for a snapshot compiled from a map, every
// engine answer equals the corresponding in-memory TrafficMap answer
// (asserted by tests/serve/query_engine_test.cpp).
//
// The engine is built over a wire-only SnapshotView, so one query path
// serves every source of snapshot bytes (MmapSnapshot, a delta-applied
// blob, a freshly written buffer) — answers cannot depend on where the
// bytes live.
//
// The engine also answers the line-delimited protocol every `itm serve` /
// `itm served` session speaks (server.h is the one session loop):
//
//   lookup <a.b.c.d>        point lookup for an address
//   prefix <a.b.c.d/len>    point lookup for an exact client prefix
//   as <asn>                one AS: identity, activity, endpoints inside
//   outage <asn>            outage impact of failing the AS
//   country <id>            per-country rollup
//   top-as <k>              top-k ASes by activity
//   top-country <k>         top-k countries by aggregate activity
//   stats                   snapshot-wide counts
//
// One line in, one line out; a malformed line produces a deterministic
// "error: ..." line instead of aborting the session. `answer()` is the
// cache-free entry point. `answer_batch()` answers a session's batch
// through the engine's one answer cache, a bounded LRU keyed by the query
// line, consulted in input order: what it holds and counts depends only on
// the sequence of lines, never on how a transport split them into batches
// or on the thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/traffic_map.h"
#include "net/executor.h"
#include "net/ipv4.h"
#include "obs/quantile.h"
#include "serve/lru_cache.h"
#include "serve/snapshot.h"
#include "serve/view.h"

namespace itm::serve {

class QueryEngine {
 public:
  // The storage behind `view` must outlive the engine (the engine holds
  // the view plus indexes into it). `cache_capacity` bounds the LRU answer
  // cache, in answers; 0 disables it.
  explicit QueryEngine(SnapshotView view, std::size_t cache_capacity = 0);

  // ---- Typed queries ----

  struct PointAnswer {
    // The detected client prefix covering the address (nullopt when the
    // address is outside every detected prefix).
    std::optional<Ipv4Prefix> client_prefix;
    std::optional<Asn> origin;  // origin AS of that prefix
    double activity = 0.0;      // activity score of the origin AS
    // (service id, front end) pairs from the ECS mappings for the /24
    // containing the address, service-ascending.
    std::vector<std::pair<std::uint32_t, Ipv4Addr>> serving;
  };
  [[nodiscard]] PointAnswer lookup(Ipv4Addr address) const;
  [[nodiscard]] PointAnswer lookup(const Ipv4Prefix& prefix) const;

  struct AsAnswer {
    Asn asn;
    std::string_view name;
    CountryId country;
    std::uint32_t type = 0;  // topology::AsType
    double activity = 0.0;
    bool is_client = false;
    std::size_t endpoints_inside = 0;  // TLS endpoints with this origin
  };
  [[nodiscard]] std::optional<AsAnswer> as_answer(Asn asn) const;

  // Exactly TrafficMap::outage_impact on the compiled data (the equality
  // is what makes the snapshot a faithful serving artifact).
  [[nodiscard]] std::optional<core::OutageImpact> outage(Asn failed) const;

  struct CountryAnswer {
    CountryId country;
    std::string_view name;
    std::size_t client_ases = 0;
    double activity = 0.0;  // summed in ASN order
    std::size_t endpoints = 0;
  };
  [[nodiscard]] std::optional<CountryAnswer> country(CountryId id) const;

  // Top-k ASes with positive activity, score descending, ASN ascending on
  // ties. k larger than the candidate set returns all of them.
  [[nodiscard]] std::vector<std::pair<Asn, double>> top_ases(
      std::size_t k) const;
  // Top-k countries by aggregate activity, id ascending on ties.
  [[nodiscard]] std::vector<std::pair<CountryId, double>> top_countries(
      std::size_t k) const;

  // Sum of all per-AS activity (the outage-share denominator).
  [[nodiscard]] double total_activity() const { return total_activity_; }

  // ---- Line protocol ----

  // Cache-free protocol answer. Const and thread-safe: any number of
  // threads may call answer() on one engine concurrently.
  [[nodiscard]] std::string answer(const std::string& line) const;

  // Replaces every line of `lines` by its answer, as if each line in turn
  // went through the answer cache: a hit copies the cached answer, a miss
  // is computed with answer(). The cache is consulted in input order on
  // the calling thread; the misses are computed over `executor`. Each
  // line's latency goes to `latency`. One caller at a time.
  void answer_batch(std::vector<std::string>& lines, net::Executor& executor,
                    obs::QuantileHistogram& latency) const;

  // The answer cache's counts. Read them only while no batch is being
  // answered.
  struct CacheCounts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] CacheCounts cache_counts() const;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Record index of the AS (kNone when absent) — indexes, not pointers,
  // because wire-mode records are decoded per access.
  [[nodiscard]] std::size_t find_as(std::uint32_t asn) const;
  [[nodiscard]] std::optional<PrefixRecord> find_covering_prefix(
      Ipv4Addr address) const;
  [[nodiscard]] std::string format_point(const PointAnswer& answer) const;

  SnapshotView view_;
  double total_activity_ = 0.0;
  // Per-AS precomputed indexes (dense by record position, not ASN):
  // endpoint counts, operator-endpoint addresses (sorted), client-prefix
  // counts — the O(1)/O(log n) backing for as/outage queries.
  std::vector<std::size_t> endpoints_by_as_;
  std::vector<std::vector<std::uint32_t>> operator_endpoints_by_as_;
  std::vector<std::size_t> client_prefixes_by_as_;
  // A cached answer; or, while a batch is being answered, an entry its
  // line `pending` reserved on a miss, filled once that line is computed.
  struct CachedAnswer {
    std::string text;
    std::size_t pending = kNone;
  };
  mutable LruCache<CachedAnswer> cache_;
};

}  // namespace itm::serve
