// Deterministic metrics for the map-build pipeline.
//
// A MetricsRegistry holds named counters, gauges and (wall-clock only)
// quantile histograms. Every metric is classified by *determinism*:
//   * kDeterministic — event counts whose final value is a pure function of
//     the scenario seed and build options. Updates are commutative integer
//     operations (add, max), so accumulating from worker
//     threads in any order yields the same value as the serial path. These
//     are the values the byte-equivalence tests diff across thread counts.
//   * kWallClock — durations, queue depths, thread counts: anything that
//     legitimately varies run to run. Exported only on request, never in the
//     deterministic section.
// This is the metrics analogue of the executor's determinism contract
// (DESIGN.md decisions #6 and #7): observability must never make two builds
// of the same seed look different just because the thread count changed.
//
// Exports use deterministic key ordering (sorted by metric name), so the
// JSON output of two registries with equal contents is byte-identical.
// The JSON export is also the one record schema: `--metrics-out` files and
// the committed BENCH_<tier>.json records both use it, and `itm obs report
// --baseline` diffs either (src/obs/report.h).
//
// Instrumented code reaches the registry through the *current registry*:
// a process-wide pointer installed by ScopedMetrics (the CLI and tests scope
// one registry per run) and defaulting to a process-global registry, so
// instrumentation sites never need a handle threaded through constructors.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/quantile.h"

namespace itm::obs {

enum class Determinism {
  kDeterministic,  // event counts: identical for every thread count
  kWallClock,      // timings/scheduling artifacts: vary run to run
};

// Monotonic event counter. Relaxed atomic addition: integer sums commute, so
// the total is thread-count independent as long as the *set* of add() calls
// is (which the executor's sharding contract guarantees).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-value / high-water-mark gauge. set() is only deterministic when called
// from one thread (stage-level summaries); maximize() commutes and is safe
// from workers.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void maximize(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create by name. The returned reference stays valid for the
  // registry's lifetime. Registering an existing name with a different
  // metric type throws std::logic_error; the determinism class of the first
  // registration wins.
  Counter& counter(std::string_view name,
                   Determinism det = Determinism::kDeterministic);
  Gauge& gauge(std::string_view name,
               Determinism det = Determinism::kDeterministic);
  // Quantile histograms estimate order statistics from wall-clock samples
  // (latencies), so they are wall-clock by definition: registering one as
  // kDeterministic throws std::logic_error. They export under a "quantiles"
  // subsection of the wall_clock JSON section only — the deterministic
  // artifact's bytes are untouched (DESIGN.md decision #11).
  QuantileHistogram& quantile(std::string_view name,
                              Determinism det = Determinism::kWallClock);

  // Drops every metric (handles become dangling; re-register after).
  void clear();

  [[nodiscard]] std::size_t size() const;

  // Snapshot accessors for tests and summaries (nullopt when absent or of a
  // different type).
  [[nodiscard]] std::optional<std::uint64_t> counter_value(
      std::string_view name) const;
  [[nodiscard]] std::optional<std::int64_t> gauge_value(
      std::string_view name) const;

  enum class Export {
    kDeterministicOnly,  // the byte-stable artifact diffed across threads
    kAll,                // adds the "wall_clock" section
  };

  // JSON document with sorted keys:
  //   {"metrics": {"deterministic": {"counters": {...}, "gauges": {...}}
  //    [, "wall_clock": {"counters": ..., "gauges": ..., "quantiles": ...}]}}
  void write_json(std::ostream& os,
                  Export what = Export::kDeterministicOnly) const;

 private:
  enum class Kind { kCounter, kGauge, kQuantile };

  struct Entry {
    Kind kind;
    Determinism det;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<QuantileHistogram> quantile;
  };

  Entry& find_or_create(std::string_view name, Kind kind, Determinism det);

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

// The current registry: the one installed by the innermost live
// ScopedMetrics, else a process-global default. Never null.
[[nodiscard]] MetricsRegistry& metrics();

// Installs `registry` as current for this scope (restores the previous one
// on destruction). Scopes are process-wide, not per-thread, so executor
// workers spawned inside the scope see the same registry as the caller.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry& registry);
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* previous_;
};

// Convenience wrappers over the current registry for instrumentation sites.
// Call at batched granularity (per sweep / per stage), not per packet: each
// call is a locked name lookup.
inline void count(std::string_view name, std::uint64_t n = 1,
                  Determinism det = Determinism::kDeterministic) {
  metrics().counter(name, det).add(n);
}
inline void gauge_set(std::string_view name, std::int64_t v,
                      Determinism det = Determinism::kDeterministic) {
  metrics().gauge(name, det).set(v);
}
inline void gauge_max(std::string_view name, std::int64_t v,
                      Determinism det = Determinism::kDeterministic) {
  metrics().gauge(name, det).maximize(v);
}
// Hot paths should resolve the QuantileHistogram handle once (registry
// lookup takes the lock) and call observe() on it directly; this wrapper is
// for per-stage call sites.
inline void observe_quantile(std::string_view name, std::uint64_t sample) {
  metrics().quantile(name).observe(sample);
}

// Sanctioned escape hatch for itm-lint's determinism-taint rule: wrapping a
// wall-clock-derived expression asserts the caller has reduced it to
// something reproducible (rounded to a fixed bucket, clamped to a config
// bound, compared against a threshold that only gates logging). The cast is
// an identity at runtime; its value is the written-down claim at the call
// site, which the lint rule trusts and a reviewer can audit.
template <typename T>
[[nodiscard]] constexpr T deterministic_cast(T value) {
  return value;
}

}  // namespace itm::obs
