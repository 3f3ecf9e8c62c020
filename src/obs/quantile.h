// Log-bucketed quantile histogram for wall-clock latencies (HDR-style).
//
// The paper's serving target is a tail-latency number (p99 under load), and
// "Where in the Internet is congestion?" makes the broader point that the
// tail, not the mean, is the signal; counters and gauges cannot report a
// p99 at all. QuantileHistogram buckets samples geometrically:
// values below 16 get one bucket each, and every power-of-two octave above
// that is split into 16 linear sub-buckets, so a bucket's width is at most
// 1/16th of its lower bound (~6% relative error). quantile(q) returns the
// midpoint of the bucket holding the q-th order statistic — by construction
// within one log-bucket of the exact value (unit-tested against exact order
// statistics on a golden sample).
//
// Buckets are relaxed atomics: observations commute, so merging from worker
// threads in any order yields the same counts. The geometry is fixed (no
// per-instance bounds), which keeps observe() allocation-free and the type
// registry-friendly.
//
// Determinism: latency is wall-clock by nature, so the registry only admits
// QuantileHistograms in the kWallClock class (registering one as
// kDeterministic throws) — the deterministic export stays byte-identical
// across thread counts (DESIGN.md decisions #7 and #11).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace itm::obs {

class QuantileHistogram {
 public:
  // 16 one-per-value buckets for [0, 16), then 16 sub-buckets per octave up
  // to 2^63; bucket_count() covers every uint64 sample with no overflow
  // bucket needed.
  static constexpr std::uint64_t kLinearLimit = 16;
  static constexpr std::uint64_t kSubBuckets = 16;

  QuantileHistogram();
  QuantileHistogram(const QuantileHistogram&) = delete;
  QuantileHistogram& operator=(const QuantileHistogram&) = delete;

  void observe(std::uint64_t sample);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }

  // Estimated q-quantile (q clamped to [0, 1]): the midpoint of the bucket
  // containing the nearest-rank order statistic; 0 when empty. Concurrent
  // observes may make the snapshot slightly stale — acceptable for a
  // wall-clock metric.
  [[nodiscard]] double quantile(double q) const;

  // Mean of all samples (sum/count); 0 when empty.
  [[nodiscard]] double mean() const;

  [[nodiscard]] std::vector<std::uint64_t> counts() const;

  // ---- bucket geometry (static, exposed for tests and reports) ----
  [[nodiscard]] static std::size_t bucket_count();
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t sample);
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t index);
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index);

 private:
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace itm::obs
