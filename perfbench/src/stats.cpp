#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> percentile(std::vector<double>& samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  // Nearest rank: the smallest value with at least p*n samples <= it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
