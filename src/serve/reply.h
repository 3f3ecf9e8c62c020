// Building protocol replies without streams: every piece of a reply is
// appended to one caller-owned string.
//
// `append(out, parts...)` appends text, unsigned integers, doubles and
// addresses in order. Integers and addresses go through std::to_chars.
// Doubles print as `%.10g`, which is what `os << std::setprecision(10)`
// prints in the C locale: std::to_chars with chars_format::general and
// precision 10 is defined as that conversion, infinities and NaNs
// included (tests/serve/reply_test.cpp compares the two).
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

#include "net/ipv4.h"

namespace itm::serve {

inline void put(std::string& out, std::string_view text) { out.append(text); }

inline void put(std::string& out, char c) { out.push_back(c); }

template <std::unsigned_integral T>
  requires(!std::same_as<T, bool>)
void put(std::string& out, T value) {
  char text[20];  // 2^64 - 1 has 20 digits
  out.append(text, std::to_chars(text, text + sizeof text, value).ptr);
}

inline void put(std::string& out, double value) {
  char text[24];  // "-1.234567891e-308" is the longest
  out.append(text, std::to_chars(text, text + sizeof text, value,
                                 std::chars_format::general, 10)
                       .ptr);
}

inline void put(std::string& out, Ipv4Addr address) {
  address.append_to(out);
}

inline void put(std::string& out, const Ipv4Prefix& prefix) {
  prefix.append_to(out);
}

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

}  // namespace itm::serve
