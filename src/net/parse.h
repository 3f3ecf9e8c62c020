// Strict number parsing for protocol tokens and command-line arguments.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace itm {

// Strict unsigned decimal parse: the whole token must be digits, and the
// value at most `max`. A number out of range is an error, never some other
// number. The query protocol, the CLI's numeric flags and the benches'
// numeric arguments all parse with it.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view token,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (token.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

// Ceiling on a thread-count argument: above any host this runs on, and low
// enough that a typo cannot ask the executor for tens of thousands of OS
// threads.
inline constexpr std::uint64_t kMaxThreads = 1024;

}  // namespace itm
