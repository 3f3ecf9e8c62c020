// Order statistics for benchmark samples.
//
// A percentile is only reported when at least ten samples lie beyond it
// (p99 needs >= 1000 samples, p90 >= 100, p50 >= 20); below that it is
// noise, and the caller must fall back to a lower percentile or fail.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

// Minimum number of samples that must lie strictly beyond a reported
// percentile.
inline constexpr std::size_t kSamplesBeyond = 10;

// Nearest-rank percentile of `samples` (0 < p < 1), or nullopt when fewer
// than kSamplesBeyond samples lie beyond it. `samples` is reordered.
[[nodiscard]] std::optional<double> percentile(std::vector<double>& samples,
                                               double p);

// Median (mean of the two middle values for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
