// The `.itms` compiled-snapshot wire format (DESIGN.md decision #9).
//
// A snapshot is the serving-layer artifact: a built TrafficMap plus the
// public topology slices it references, compiled into flat, sorted,
// offset-indexed sections so a QueryEngine can answer point lookups with
// binary searches over mmap-shaped data instead of rebuilding the map.
//
// Layout (all integers little-endian, doubles as IEEE-754 bit patterns):
//
//   magic      8 bytes  "ITMSNAP1"
//   version    u32      kSnapshotVersion
//   endian     u32      kEndianMarker (0x01020304)
//   checksum   u64      FNV-1a 64 over every byte after this field
//   tail:
//     seed           u64   scenario seed the map was built from
//     section_count  u32
//     reserved       u32   must be zero
//     section table  section_count x {id u32, reserved u32, offset u64,
//                                     size u64}   (offsets from file start)
//     section payloads, tightly packed in table order
//
// The format is *canonical*: sections appear in ascending id order, tightly
// packed, with sorted records and no padding or trailing bytes. The reader
// rejects any deviation, which is what makes write -> read -> re-write
// byte-identical (the round-trip property test) and lets the determinism
// gate diff snapshot bytes across thread counts.
//
// Every byte of the file is either explicitly validated (magic, version,
// endian marker) or covered by the checksum (the entire tail), so a single
// flipped bit anywhere is always rejected; a flipped bit inside the checksum
// field itself fails the comparison. Truncation is caught by bounds checks
// before any record is parsed.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace itm::serve {

inline constexpr std::array<char, 8> kSnapshotMagic = {'I', 'T', 'M', 'S',
                                                       'N', 'A', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::uint32_t kEndianMarker = 0x01020304;

// Section identifiers; the canonical file orders sections ascending by id.
enum class SectionId : std::uint32_t {
  kStrings = 1,    // deduplicated string table (names, operators)
  kMeta = 2,       // scalar map-wide facts
  kCountries = 3,  // country id -> name
  kAsRecords = 4,  // per-AS topology slice + activity, sorted by ASN
  kPrefixes = 5,   // client prefixes + origin AS, sorted for binary search
  kEndpoints = 6,  // TLS endpoints, sorted by address
  kMappings = 7,   // per-service (client /24 -> front end), sorted
  kLinks = 8,      // recommended peering links, recommender order
};

// Every canonical snapshot carries exactly the sections above.
inline constexpr std::uint32_t kSectionCount = 8;

// The fixed frame in front of the section payloads: the header (magic,
// version, endian marker, checksum), then seed, section count, reserved
// word and the section table.
inline constexpr std::size_t kSnapshotHeaderBytes = 8 + 4 + 4 + 8;
inline constexpr std::size_t kSnapshotFrameBytes =
    kSnapshotHeaderBytes + 8 + 4 + 4 + std::size_t{kSectionCount} * 24;

// Sentinel for "no string" references (empty operator, unknown origin).
inline constexpr std::uint32_t kNoRef = 0xffffffffu;

// FNV-1a 64-bit over a byte range; the snapshot checksum. Chosen over a CRC
// for being trivially portable and dependency-free — the goal is corruption
// *detection* for a local artifact, not adversarial integrity. `h` chains
// one range onto another: fnv1a64(b, fnv1a64(a)) hashes a then b.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Unaligned little-endian loads and stores: the one definition of the
// format's byte order, shared by ByteReader/ByteWriter and the record
// codecs (view.h). The explicit byte assembly keeps big-endian hosts
// correct; compilers fold it into a plain load or store on little-endian
// ones. Doubles travel as their IEEE-754 bit pattern: bit-exact
// round-trips, no text formatting involved.
inline std::uint32_t wire_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
}
inline std::uint64_t wire_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
}
inline double wire_f64(const char* p) {
  const std::uint64_t bits = wire_u64(p);
  double v = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&v, &bits, sizeof v);
  return v;
}
inline void put_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}
inline void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}
inline void put_f64(char* p, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(p, bits);
}

// Appends little-endian scalars to a growing byte buffer. std::string is the
// buffer type so the result can be checksummed and written in one piece.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put_u32(extend(4), v); }
  void u64(std::uint64_t v) { put_u64(extend(8), v); }
  void bytes(std::string_view b) { out_.append(b); }
  // Appends `n` bytes for the caller to fill in place — how the record
  // codecs emit whole records.
  [[nodiscard]] char* extend(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }

  // The written byte at `offset`, for patching a field whose value is
  // known only once what follows it is written (a count, a section table).
  [[nodiscard]] char* at(std::size_t offset) { return out_.data() + offset; }

  void reserve(std::size_t n) { out_.reserve(n); }
  [[nodiscard]] const std::string& buffer() const { return out_; }
  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  std::string out_;
};

// Bounds-checked little-endian cursor over a byte range. Reads never throw;
// the first out-of-bounds access latches failed() and subsequent reads
// return zero, so parse loops stay simple and the caller checks once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    if (!require(1)) return 0;
    return static_cast<unsigned char>(bytes_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() {
    return require(4) ? wire_u32(take(4)) : 0;
  }
  [[nodiscard]] std::uint64_t u64() {
    return require(8) ? wire_u64(take(8)) : 0;
  }
  [[nodiscard]] std::string_view bytes(std::size_t n) {
    if (!require(n)) return {};
    return {take(n), n};
  }

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t remaining() const {
    return failed_ ? 0 : bytes_.size() - pos_;
  }
  // True when the cursor consumed the range exactly, with no failure.
  [[nodiscard]] bool exhausted() const {
    return !failed_ && pos_ == bytes_.size();
  }

 private:
  bool require(std::size_t n) {
    if (failed_ || bytes_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }
  const char* take(std::size_t n) {
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace itm::serve
