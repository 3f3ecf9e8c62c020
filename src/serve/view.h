// The `.itms` record codecs and the zero-copy section views built on them.
//
// One codec defines each record's wire layout, and only the codec: the
// writer, the validator, these views and the `.itmsd` delta all encode and
// decode records through it. WireCodec<Rec> covers the fixed-size records
// (a field list, packed little-endian in declaration order); the table,
// string-table and service-mapping codecs below frame them into sections.
// Adding a field to a record is one edit to its WireCodec line (and a
// format version bump).
//
// Views are wire-only. The format is flat, little-endian and offset-indexed,
// so a validated file is *served from in place*: a SnapshotView's record
// spans borrow the raw section bytes and decode a record per access, a
// handful of unaligned loads. QueryEngine is written against SnapshotView,
// so the batch CLI, the resident server and the tests all exercise one
// query path, whether the bytes are an mmap or an in-memory delta result.
//
// A view never owns the underlying bytes: the mmap or buffer it was built
// over must outlive it (MmapSnapshot and serve::Epoch package storage and
// view together). The small directories a view needs for random access — a
// string_view per string, a span per service mapping — are owned by the
// view itself and cost a few words per entry instead of a copy of the
// section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/format.h"
#include "serve/snapshot.h"

namespace itm::serve {

// ---- Fixed-size records ----

template <typename C, typename T>
C record_of(T C::*);
template <typename C, typename T>
T field_of(T C::*);

inline void put_field(char* p, std::uint32_t v) { put_u32(p, v); }
inline void put_field(char* p, double v) { put_f64(p, v); }
inline void get_field(const char* p, std::uint32_t& v) { v = wire_u32(p); }
inline void get_field(const char* p, double& v) { v = wire_f64(p); }

// A record packed as its listed fields, in order, with no padding: u32
// fields take 4 bytes, doubles 8.
template <auto... Fields>
struct PackedCodec {
  using Rec = decltype((record_of(Fields), ...));
  static constexpr std::size_t kBytes = (sizeof(field_of(Fields)) + ...);

  static void encode(const Rec& rec, char* p) {
    ((put_field(p, rec.*Fields), p += sizeof(field_of(Fields))), ...);
  }
  static Rec decode(const char* p) {
    Rec rec;
    ((get_field(p, rec.*Fields), p += sizeof(field_of(Fields))), ...);
    return rec;
  }
};

// Per-record wire layout: kBytes, encode(const Rec&, char*) and
// decode(const char*).
template <typename Rec>
struct WireCodec;

template <>
struct WireCodec<CountryRecord>
    : PackedCodec<&CountryRecord::country, &CountryRecord::name_ref> {};
template <>
struct WireCodec<AsRecord>
    : PackedCodec<&AsRecord::asn, &AsRecord::name_ref, &AsRecord::country,
                  &AsRecord::type, &AsRecord::flags, &AsRecord::activity> {};
template <>
struct WireCodec<PrefixRecord>
    : PackedCodec<&PrefixRecord::base, &PrefixRecord::length,
                  &PrefixRecord::origin_asn> {};
template <>
struct WireCodec<EndpointRecord>
    : PackedCodec<&EndpointRecord::address, &EndpointRecord::origin_asn,
                  &EndpointRecord::operator_ref, &EndpointRecord::flags,
                  &EndpointRecord::lat_deg, &EndpointRecord::lon_deg> {};
template <>
struct WireCodec<MappingEntry>
    : PackedCodec<&MappingEntry::prefix_base, &MappingEntry::prefix_length,
                  &MappingEntry::address> {};
template <>
struct WireCodec<LinkRecord>
    : PackedCodec<&LinkRecord::a, &LinkRecord::b, &LinkRecord::score> {};

// A read-only random-access span of records borrowed from wire bytes.
// operator[] returns by value: records are a few machine words, and
// decoding on access is what makes the borrow copy-free.
template <typename Rec>
class RecordSpan {
 public:
  RecordSpan() = default;
  RecordSpan(const char* bytes, std::size_t count)
      : bytes_(bytes), count_(count) {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] Rec operator[](std::size_t i) const {
    return WireCodec<Rec>::decode(bytes_ + i * WireCodec<Rec>::kBytes);
  }
  // The wire bytes of records [first, last) — what a splice copies
  // verbatim and a diff compares.
  [[nodiscard]] std::string_view wire(std::size_t first,
                                      std::size_t last) const {
    return {bytes_ + first * WireCodec<Rec>::kBytes,
            (last - first) * WireCodec<Rec>::kBytes};
  }

 private:
  const char* bytes_ = nullptr;
  std::size_t count_ = 0;
};

// Copies a span's records into owned storage.
template <typename Rec>
std::vector<Rec> to_vector(const RecordSpan<Rec>& span) {
  std::vector<Rec> out;
  out.reserve(span.size());
  for (std::size_t i = 0; i < span.size(); ++i) out.push_back(span[i]);
  return out;
}

// First index whose record does NOT satisfy `less_than_key` — the span
// analogue of std::lower_bound over a sorted section. The spans' value-
// returning accessors rule out the standard iterator algorithms, and a
// twenty-line binary search beats conforming proxy iterators.
template <typename Rec, typename LessThanKey>
std::size_t span_lower_bound(const RecordSpan<Rec>& span,
                             LessThanKey&& less_than_key) {
  std::size_t lo = 0;
  std::size_t hi = span.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (less_than_key(span[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---- Framing: tables, the string table, service mappings ----

// A record table: u32 count, then `count` packed records. Every fixed-size
// section is one, and so is the delta's link replacement.
template <typename Rec>
void encode_table(ByteWriter& w, const std::vector<Rec>& records) {
  w.u32(static_cast<std::uint32_t>(records.size()));
  char* p = w.extend(records.size() * WireCodec<Rec>::kBytes);
  for (const Rec& rec : records) {
    WireCodec<Rec>::encode(rec, p);
    p += WireCodec<Rec>::kBytes;
  }
}

// The bytes encode_table writes for `records`.
template <typename Rec>
std::size_t table_bytes(const std::vector<Rec>& records) {
  return sizeof(std::uint32_t) + records.size() * WireCodec<Rec>::kBytes;
}

// Borrows a table's records in place. The size is checked once, in 64
// bits, so no count can wrap the bound; a short input latches r.failed().
template <typename Rec>
RecordSpan<Rec> decode_table(ByteReader& r) {
  const std::uint32_t count = r.u32();
  const std::string_view bytes =
      r.bytes(std::uint64_t{count} * WireCodec<Rec>::kBytes);
  if (r.failed()) return {};
  return RecordSpan<Rec>(bytes.data(), count);
}

// The string table: u32 count, then {u32 length, bytes} per string.
inline void encode_strings(ByteWriter& w,
                           const std::vector<std::string>& strings) {
  w.u32(static_cast<std::uint32_t>(strings.size()));
  for (const std::string& s : strings) {
    w.u32(static_cast<std::uint32_t>(s.size()));
    w.bytes(s);
  }
}

// The bytes encode_strings writes for `strings`.
inline std::size_t strings_bytes(const std::vector<std::string>& strings) {
  std::size_t bytes = sizeof(std::uint32_t);
  for (const std::string& s : strings) {
    bytes += sizeof(std::uint32_t) + s.size();
  }
  return bytes;
}

// Calls `each(std::string_view)` per string, in order, until the input
// runs out (latching r.failed()).
template <typename Each>
void decode_strings(ByteReader& r, Each&& each) {
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    const std::uint32_t length = r.u32();
    const std::string_view s = r.bytes(length);
    if (!r.failed()) each(s);
  }
}

// One service's mapping as the engine consumes it: the id plus a span of
// prefix-sorted entries.
struct ServiceMappingView {
  std::uint32_t service = 0;
  RecordSpan<MappingEntry> entries;
};

// A service mapping: u32 service id, then its entry table.
inline void encode_mapping(ByteWriter& w, const ServiceMapping& mapping) {
  w.u32(mapping.service);
  encode_table(w, mapping.entries);
}

// The bytes encode_mapping writes for `mapping`.
inline std::size_t mapping_bytes(const ServiceMapping& mapping) {
  return sizeof(std::uint32_t) + table_bytes(mapping.entries);
}

inline ServiceMappingView decode_mapping(ByteReader& r) {
  ServiceMappingView view;
  view.service = r.u32();
  view.entries = decode_table<MappingEntry>(r);
  return view;
}

// The wire bytes of a mapping decode_mapping borrowed: its service id and
// entry count sit just in front of its entries.
inline std::string_view mapping_wire(const ServiceMappingView& mapping) {
  const std::string_view entries =
      mapping.entries.wire(0, mapping.entries.size());
  constexpr std::size_t kFront = 2 * sizeof(std::uint32_t);
  return {entries.data() - kFront, kFront + entries.size()};
}

// The whole snapshot as section views — what QueryEngine serves from.
struct SnapshotView {
  std::uint64_t seed = 0;
  std::uint64_t addresses_probed = 0;
  std::uint64_t observed_links = 0;

  std::vector<std::string_view> strings;
  RecordSpan<CountryRecord> countries;
  RecordSpan<AsRecord> ases;
  RecordSpan<PrefixRecord> prefixes;
  RecordSpan<EndpointRecord> endpoints;
  std::vector<ServiceMappingView> mappings;  // services ascending
  RecordSpan<LinkRecord> links;
};

}  // namespace itm::serve
