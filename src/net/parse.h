// Strict number parsing and whitespace-delimited tokens, for protocol
// lines and command-line arguments.
#pragma once

#include <cstddef>
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

// True for the bytes `std::istream >> std::string` skips in the C locale:
// space, \t, \n, \v, \f and \r.
[[nodiscard]] constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Removes the first whitespace-delimited token from `rest` and returns it;
// the token is empty once only whitespace remains. Splits a line exactly as
// repeated `is >> token` would, into views of the line itself.
[[nodiscard]] constexpr std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

// Ceiling on a thread-count argument: above any host this runs on, and low
// enough that a typo cannot ask the executor for tens of thousands of OS
// threads.
inline constexpr std::uint64_t kMaxThreads = 1024;

}  // namespace itm
