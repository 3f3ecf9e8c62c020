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
// The engine also speaks a line-delimited batch protocol (`execute`):
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
// One line in, one line out, in input order; malformed lines produce a
// deterministic "error: ..." line instead of aborting the batch. Results
// are memoized in a bounded LRU cache keyed by the query line; `answer()`
// is the cache-free const entry point the resident server shares one
// engine through (thread-safe: touches only immutable state).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/traffic_map.h"
#include "net/ipv4.h"
#include "obs/quantile.h"
#include "serve/lru_cache.h"
#include "serve/snapshot.h"
#include "serve/view.h"

namespace itm::serve {

class QueryEngine {
 public:
  // The storage behind `view` must outlive the engine (the engine holds
  // the view plus indexes into it). `cache_capacity` bounds the LRU result
  // cache; 0 disables it.
  explicit QueryEngine(SnapshotView view, std::size_t cache_capacity = 1024);

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

  // ---- Batch protocol ----

  // Executes one protocol line and returns the one-line answer. Caches
  // results; repeated lines hit the LRU. Not thread-safe (cache + stats).
  [[nodiscard]] std::string execute(const std::string& line);

  // Cache-free protocol answer. Const and thread-safe: any number of
  // threads may call answer() on one engine concurrently — the resident
  // server shares a single per-epoch engine this way, with per-worker
  // caches layered outside.
  [[nodiscard]] std::string answer(const std::string& line) const {
    return execute_uncached(line);
  }

  [[nodiscard]] std::uint64_t cache_hits() const { return cache_.hits(); }
  [[nodiscard]] std::uint64_t cache_misses() const { return cache_.misses(); }
  [[nodiscard]] std::uint64_t cache_evictions() const {
    return cache_.evictions();
  }
  [[nodiscard]] std::uint64_t queries_executed() const { return executed_; }

  // The wall-clock latency record execute() feeds ("serve.query_latency_us"
  // in the registry current at construction).
  [[nodiscard]] const obs::QuantileHistogram& latency() const {
    return *latency_;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  [[nodiscard]] std::string execute_uncached(const std::string& line) const;
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
  LruCache<std::string> cache_;
  obs::QuantileHistogram* latency_;
  std::uint64_t executed_ = 0;
};

}  // namespace itm::serve
