// IPv4 address and prefix value types.
//
// Addresses are a thin wrapper over a host-order uint32; prefixes pair an
// address with a mask length and canonicalize the host bits to zero so that
// equal prefixes compare equal regardless of how they were constructed.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace itm {

class Ipv4Addr {
 public:
  Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t host_order) : bits_(host_order) {}

  // Builds from dotted-quad octets: Ipv4Addr::from_octets(10, 0, 0, 1).
  static constexpr Ipv4Addr from_octets(std::uint8_t a, std::uint8_t b,
                                        std::uint8_t c, std::uint8_t d) {
    return Ipv4Addr((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                    (std::uint32_t{c} << 8) | std::uint32_t{d});
  }

  // Parses "a.b.c.d"; returns nullopt on malformed input.
  static std::optional<Ipv4Addr> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t bits() const { return bits_; }
  [[nodiscard]] std::string to_string() const;
  // Appends the dotted quad to `out`, with no temporary string.
  void append_to(std::string& out) const;

  friend constexpr auto operator<=>(Ipv4Addr, Ipv4Addr) = default;

  friend std::ostream& operator<<(std::ostream& os, Ipv4Addr a);

 private:
  std::uint32_t bits_ = 0;
};

class Ipv4Prefix {
 public:
  Ipv4Prefix() = default;

  // Canonicalizes: bits below the mask are cleared.
  constexpr Ipv4Prefix(Ipv4Addr base, std::uint8_t length)
      : base_(Ipv4Addr(length == 0 ? 0 : (base.bits() & mask_for(length)))),
        length_(length > 32 ? 32 : length) {}

  // Parses "a.b.c.d/len"; returns nullopt on malformed input.
  static std::optional<Ipv4Prefix> parse(std::string_view text);

  [[nodiscard]] constexpr Ipv4Addr base() const { return base_; }
  [[nodiscard]] constexpr std::uint8_t length() const { return length_; }

  // Number of addresses covered (2^(32-length)).
  [[nodiscard]] constexpr std::uint64_t size() const {
    return std::uint64_t{1} << (32 - length_);
  }

  [[nodiscard]] constexpr bool contains(Ipv4Addr addr) const {
    return length_ == 0 ||
           (addr.bits() & mask_for(length_)) == base_.bits();
  }

  [[nodiscard]] constexpr bool contains(const Ipv4Prefix& other) const {
    return other.length_ >= length_ && contains(other.base_);
  }

  // The enclosing /len prefix of this prefix (len must be <= length()).
  [[nodiscard]] constexpr Ipv4Prefix parent_at(std::uint8_t len) const {
    return Ipv4Prefix(base_, len);
  }

  // The i-th /sublen child. sublen must be >= length().
  [[nodiscard]] constexpr Ipv4Prefix child(std::uint8_t sublen,
                                           std::uint64_t index) const {
    if (sublen == 0) return Ipv4Prefix(base_, 0);  // only child of /0 is /0
    const std::uint32_t step =
        sublen >= 32 ? 1u : (std::uint32_t{1} << (32 - sublen));
    return Ipv4Prefix(
        Ipv4Addr(base_.bits() + static_cast<std::uint32_t>(index) * step),
        sublen);
  }

  // Address at offset within the prefix.
  [[nodiscard]] constexpr Ipv4Addr address_at(std::uint64_t offset) const {
    return Ipv4Addr(base_.bits() + static_cast<std::uint32_t>(offset));
  }

  [[nodiscard]] std::string to_string() const;
  // Appends "a.b.c.d/len" to `out`, with no temporary string.
  void append_to(std::string& out) const;

  friend constexpr auto operator<=>(const Ipv4Prefix&,
                                    const Ipv4Prefix&) = default;

  friend std::ostream& operator<<(std::ostream& os, const Ipv4Prefix& p);

  static constexpr std::uint32_t mask_for(std::uint8_t length) {
    return length == 0 ? 0u
                       : ~std::uint32_t{0} << (32 - (length > 32 ? 32 : length));
  }

 private:
  Ipv4Addr base_;
  std::uint8_t length_ = 0;
};

}  // namespace itm

namespace std {
template <>
struct hash<itm::Ipv4Addr> {
  size_t operator()(itm::Ipv4Addr a) const noexcept {
    return std::hash<std::uint32_t>{}(a.bits());
  }
};

template <>
struct hash<itm::Ipv4Prefix> {
  size_t operator()(const itm::Ipv4Prefix& p) const noexcept {
    // Mix length into the base address hash.
    const std::uint64_t key =
        (std::uint64_t{p.base().bits()} << 8) | p.length();
    return std::hash<std::uint64_t>{}(key);
  }
};
}  // namespace std
