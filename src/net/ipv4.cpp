#include "net/ipv4.h"

#include <charconv>

namespace itm {

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) {
  std::uint32_t bits = 0;
  const char* p = text.data();
  const char* end = text.data() + text.size();
  for (int octet = 0; octet < 4; ++octet) {
    unsigned value = 0;
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc{} || value > 255 || next == p) return std::nullopt;
    bits = (bits << 8) | value;
    p = next;
    if (octet < 3) {
      if (p == end || *p != '.') return std::nullopt;
      ++p;
    }
  }
  if (p != end) return std::nullopt;
  return Ipv4Addr(bits);
}

std::string Ipv4Addr::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Ipv4Addr::append_to(std::string& out) const {
  char text[16];  // "255.255.255.255."
  char* p = text;
  for (int shift = 24; shift >= 0; shift -= 8) {
    p = std::to_chars(p, p + 3, (bits_ >> shift) & 0xff).ptr;
    *p++ = '.';
  }
  out.append(text, p - 1);
}

std::ostream& operator<<(std::ostream& os, Ipv4Addr a) {
  return os << a.to_string();
}

std::optional<Ipv4Prefix> Ipv4Prefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Addr::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  unsigned length = 0;
  const char* p = text.data() + slash + 1;
  const char* end = text.data() + text.size();
  auto [next, ec] = std::from_chars(p, end, length);
  if (ec != std::errc{} || next != end || length > 32) return std::nullopt;
  return Ipv4Prefix(*addr, static_cast<std::uint8_t>(length));
}

std::string Ipv4Prefix::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Ipv4Prefix::append_to(std::string& out) const {
  base_.append_to(out);
  out.push_back('/');
  char text[2];  // "32"
  out.append(text,
             std::to_chars(text, text + sizeof text, unsigned{length_}).ptr);
}

std::ostream& operator<<(std::ostream& os, const Ipv4Prefix& p) {
  return os << p.to_string();
}

}  // namespace itm
