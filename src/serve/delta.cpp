#include "serve/delta.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/format.h"
#include "serve/snapshot.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "serve/view.h"

namespace itm::serve {

namespace {

constexpr std::uint8_t kOpAdd = 1;
constexpr std::uint8_t kOpRemove = 2;
constexpr std::uint8_t kOpReplace = 3;

// ---- Records: the snapshot codecs (view.h) plus a key per record ----
//
// Add and replace ops carry the record in its `.itms` wire layout, so the
// delta defines no layout of its own. Records compare by those encoded
// bytes: the delta's contract is *byte* identity of the applied result,
// and operator== on doubles would conflate 0.0 with -0.0.

template <typename Rec>
struct Payload {
  static constexpr std::size_t kBytes = WireCodec<Rec>::kBytes;
  static void encode(ByteWriter& w, const Rec& rec) {
    WireCodec<Rec>::encode(rec, w.extend(kBytes));
  }
  static Rec decode(ByteReader& r) {
    const std::string_view bytes = r.bytes(kBytes);
    return r.failed() ? Rec{} : WireCodec<Rec>::decode(bytes.data());
  }
  static bool equal(const Rec& a, const Rec& b) {
    char x[kBytes];
    char y[kBytes];
    WireCodec<Rec>::encode(a, x);
    WireCodec<Rec>::encode(b, y);
    return std::memcmp(x, y, kBytes) == 0;
  }
};

template <typename Rec>
bool records_equal(const std::vector<Rec>& a, const std::vector<Rec>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    Payload<Rec>::equal);
}

// A service's mapping swaps as a unit: service id plus entry table.
template <>
struct Payload<ServiceMapping> {
  static void encode(ByteWriter& w, const ServiceMapping& m) {
    encode_mapping(w, m);
  }
  static ServiceMapping decode(ByteReader& r) {
    const ServiceMappingView m = decode_mapping(r);
    return {m.service, to_vector(m.entries)};
  }
  static bool equal(const ServiceMapping& a, const ServiceMapping& b) {
    return a.service == b.service && records_equal(a.entries, b.entries);
  }
};

// Records keyed by one u32 field.
template <auto Field>
struct U32Key {
  using Rec = decltype(record_of(Field));
  using Key = std::uint32_t;
  static Key key(const Rec& r) { return r.*Field; }
  static void encode_key(ByteWriter& w, Key k) { w.u32(k); }
  static Key decode_key(ByteReader& r) { return r.u32(); }
};

using CountryTraits = U32Key<&CountryRecord::country>;
using AsTraits = U32Key<&AsRecord::asn>;
using EndpointTraits = U32Key<&EndpointRecord::address>;
using MappingTraits = U32Key<&ServiceMapping::service>;

struct PrefixTraits {
  using Rec = PrefixRecord;
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  static Key key(const PrefixRecord& r) { return {r.base, r.length}; }
  static void encode_key(ByteWriter& w, Key k) {
    w.u32(k.first);
    w.u32(k.second);
  }
  static Key decode_key(ByteReader& r) {
    const std::uint32_t base = r.u32();
    return {base, r.u32()};
  }
};

// ---- Diff side: two-pointer merge of key-sorted sections into op lists ----

template <typename Traits, typename Rec = typename Traits::Rec>
void diff_section(ByteWriter& w, const std::vector<Rec>& base,
                  const std::vector<Rec>& target) {
  ByteWriter ops;
  std::uint32_t count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < base.size() || j < target.size()) {
    if (j == target.size() ||
        (i < base.size() && Traits::key(base[i]) < Traits::key(target[j]))) {
      ops.u8(kOpRemove);
      Traits::encode_key(ops, Traits::key(base[i]));
      ++count;
      ++i;
    } else if (i == base.size() ||
               Traits::key(target[j]) < Traits::key(base[i])) {
      ops.u8(kOpAdd);
      Payload<Rec>::encode(ops, target[j]);
      ++count;
      ++j;
    } else {
      if (!Payload<Rec>::equal(base[i], target[j])) {
        ops.u8(kOpReplace);
        Payload<Rec>::encode(ops, target[j]);
        ++count;
      }
      ++i;
      ++j;
    }
  }
  w.u32(count);
  w.bytes(ops.buffer());
}

// ---- Apply side: strict merge of base + ops into the target section ----

struct ApplyState {
  std::string error;
  bool failed = false;
  std::uint64_t ops = 0;

  bool fail(const std::string& message) {
    if (!failed) {
      failed = true;
      error = message;
    }
    return false;
  }
};

template <typename Traits, typename Rec = typename Traits::Rec>
bool apply_section(ApplyState& st, ByteReader& r, const char* what,
                   std::vector<Rec>& records) {
  const std::uint32_t count = r.u32();
  if (r.failed()) return st.fail(std::string(what) + " ops truncated");
  std::vector<Rec> out;
  out.reserve(records.size());
  std::size_t i = 0;
  bool have_prev_key = false;
  typename Traits::Key prev_key{};
  for (std::uint32_t n = 0; n < count; ++n) {
    const std::uint8_t op = r.u8();
    typename Traits::Key key{};
    Rec rec{};
    if (op == kOpRemove) {
      key = Traits::decode_key(r);
    } else if (op == kOpAdd || op == kOpReplace) {
      rec = Payload<Rec>::decode(r);
      key = Traits::key(rec);
    } else {
      return st.fail(std::string(what) + " ops contain an unknown op code");
    }
    if (r.failed()) return st.fail(std::string(what) + " ops truncated");
    if (have_prev_key && !(prev_key < key)) {
      return st.fail(std::string(what) + " ops not sorted by key");
    }
    prev_key = key;
    have_prev_key = true;

    // Copy base records below the op key through untouched.
    while (i < records.size() && Traits::key(records[i]) < key) {
      out.push_back(std::move(records[i]));
      ++i;
    }
    const bool present = i < records.size() && Traits::key(records[i]) == key;
    if (op == kOpAdd) {
      if (present) {
        return st.fail(std::string(what) + " add op targets an existing key");
      }
      out.push_back(std::move(rec));
    } else if (op == kOpRemove) {
      if (!present) {
        return st.fail(std::string(what) + " remove op targets a missing key");
      }
      ++i;
    } else {
      if (!present) {
        return st.fail(std::string(what) +
                       " replace op targets a missing key");
      }
      out.push_back(std::move(rec));
      ++i;
    }
    ++st.ops;
  }
  while (i < records.size()) {
    out.push_back(std::move(records[i]));
    ++i;
  }
  records = std::move(out);
  return true;
}

// Skips (diff) or reads (apply/info) an op list without interpreting it —
// used by read_delta_info to structurally validate all sections.
template <typename Traits>
bool scan_section(ApplyState& st, ByteReader& r, const char* what) {
  const std::uint32_t count = r.u32();
  if (r.failed()) return st.fail(std::string(what) + " ops truncated");
  for (std::uint32_t n = 0; n < count; ++n) {
    const std::uint8_t op = r.u8();
    if (op == kOpRemove) {
      (void)Traits::decode_key(r);
    } else if (op == kOpAdd || op == kOpReplace) {
      (void)Payload<typename Traits::Rec>::decode(r);
    } else {
      return st.fail(std::string(what) + " ops contain an unknown op code");
    }
    if (r.failed()) return st.fail(std::string(what) + " ops truncated");
    ++st.ops;
  }
  return true;
}

// The wholesale replacements travel in their snapshot encoding. `out` is
// null when only validating.
bool read_string_table(ApplyState& st, ByteReader& r,
                       std::vector<std::string>* out) {
  if (out != nullptr) out->clear();
  decode_strings(r, [out](std::string_view s) {
    if (out != nullptr) out->emplace_back(s);
  });
  return !r.failed() || st.fail("string replacement truncated");
}

bool read_link_table(ApplyState& st, ByteReader& r,
                     std::vector<LinkRecord>* out) {
  const RecordSpan<LinkRecord> links = decode_table<LinkRecord>(r);
  if (r.failed()) return st.fail("link replacement truncated");
  if (out != nullptr) *out = to_vector(links);
  return true;
}

constexpr std::size_t kDeltaHeaderSize = 8 + 4 + 4 + 8;

// Validates the delta container (magic/version/endian/checksum) and
// returns the tail on success.
std::optional<std::string_view> delta_tail(std::string_view bytes,
                                           std::string* error) {
  const auto fail = [&](const char* message) -> std::optional<std::string_view> {
    if (error != nullptr) *error = message;
    obs::count("serve.delta.rejected");
    return std::nullopt;
  };
  if (bytes.size() < kDeltaHeaderSize) {
    return fail("file shorter than delta header");
  }
  ByteReader header(bytes.substr(0, kDeltaHeaderSize));
  const auto magic = header.bytes(kDeltaMagic.size());
  if (magic != std::string_view(kDeltaMagic.data(), kDeltaMagic.size())) {
    return fail("bad magic (not an .itmsd delta)");
  }
  if (header.u32() != kDeltaVersion) return fail("unsupported delta version");
  if (header.u32() != kEndianMarker) return fail("endianness marker mismatch");
  const std::uint64_t checksum = header.u64();
  const std::string_view tail = bytes.substr(kDeltaHeaderSize);
  if (fnv1a64(tail) != checksum) {
    return fail("checksum mismatch (corrupted delta)");
  }
  return tail;
}

}  // namespace

std::optional<std::string> diff_snapshots(std::string_view base_bytes,
                                          std::string_view target_bytes,
                                          std::string* error) {
  std::string parse_error;
  const auto base = read_snapshot(base_bytes, &parse_error);
  if (!base) {
    if (error != nullptr) *error = "base snapshot: " + parse_error;
    return std::nullopt;
  }
  const auto target = read_snapshot(target_bytes, &parse_error);
  if (!target) {
    if (error != nullptr) *error = "target snapshot: " + parse_error;
    return std::nullopt;
  }

  ByteWriter tail;
  tail.u64(snapshot_checksum(base_bytes));
  tail.u64(snapshot_checksum(target_bytes));
  tail.u64(target->seed);
  tail.u64(target->addresses_probed);
  tail.u64(target->observed_links);

  if (base->strings == target->strings) {
    tail.u8(0);
  } else {
    tail.u8(1);
    encode_strings(tail, target->strings);
  }
  diff_section<CountryTraits>(tail, base->countries, target->countries);
  diff_section<AsTraits>(tail, base->ases, target->ases);
  diff_section<PrefixTraits>(tail, base->prefixes, target->prefixes);
  diff_section<EndpointTraits>(tail, base->endpoints, target->endpoints);
  diff_section<MappingTraits>(tail, base->mappings, target->mappings);
  if (records_equal(base->links, target->links)) {
    tail.u8(0);
  } else {
    tail.u8(1);
    encode_table(tail, target->links);
  }

  ByteWriter out;
  out.bytes(std::string_view(kDeltaMagic.data(), kDeltaMagic.size()));
  out.u32(kDeltaVersion);
  out.u32(kEndianMarker);
  out.u64(fnv1a64(tail.buffer()));
  out.bytes(tail.buffer());
  obs::count("serve.delta.diffs");
  obs::count("serve.delta.bytes_written", out.size());
  return out.buffer();
}

std::optional<std::string> apply_delta(std::string_view base_bytes,
                                       std::string_view delta_bytes,
                                       std::string* error) {
  const auto tail = delta_tail(delta_bytes, error);
  if (!tail) return std::nullopt;

  std::string parse_error;
  auto snap = read_snapshot(base_bytes, &parse_error);
  if (!snap) {
    if (error != nullptr) *error = "base snapshot: " + parse_error;
    return std::nullopt;
  }

  ApplyState st;
  const auto fail = [&](const std::string& message)
      -> std::optional<std::string> {
    if (error != nullptr) *error = message;
    obs::count("serve.delta.rejected");
    return std::nullopt;
  };

  ByteReader r(*tail);
  const std::uint64_t base_checksum = r.u64();
  const std::uint64_t target_checksum = r.u64();
  if (r.failed()) return fail("delta tail truncated");
  if (base_checksum != snapshot_checksum(base_bytes)) {
    return fail("delta targets a different base snapshot");
  }
  snap->seed = r.u64();
  snap->addresses_probed = r.u64();
  snap->observed_links = r.u64();

  const std::uint8_t strings_flag = r.u8();
  if (r.failed()) return fail("delta tail truncated");
  if (strings_flag > 1) return fail("bad string replacement flag");
  if (strings_flag == 1 && !read_string_table(st, r, &snap->strings)) {
    return fail(st.error);
  }
  if (!apply_section<CountryTraits>(st, r, "country", snap->countries) ||
      !apply_section<AsTraits>(st, r, "AS", snap->ases) ||
      !apply_section<PrefixTraits>(st, r, "prefix", snap->prefixes) ||
      !apply_section<EndpointTraits>(st, r, "endpoint", snap->endpoints) ||
      !apply_section<MappingTraits>(st, r, "mapping", snap->mappings)) {
    return fail(st.error);
  }
  const std::uint8_t links_flag = r.u8();
  if (r.failed()) return fail("delta tail truncated");
  if (links_flag > 1) return fail("bad link replacement flag");
  if (links_flag == 1 && !read_link_table(st, r, &snap->links)) {
    return fail(st.error);
  }
  if (!r.exhausted()) return fail("trailing bytes after delta ops");

  // The proof obligation: the rebuilt snapshot must BE the target, byte for
  // byte. Serialization is canonical, so checksum equality is bytes
  // equality; anything the op checks missed dies here.
  std::string rebuilt = snapshot_bytes(*snap);
  if (snapshot_checksum(rebuilt) != target_checksum) {
    return fail("applied result does not match the delta's target checksum");
  }
  obs::count("serve.delta.applies");
  obs::count("serve.delta.ops_applied", st.ops);
  return rebuilt;
}

std::optional<DeltaInfo> read_delta_info(std::string_view delta_bytes,
                                         std::string* error) {
  const auto tail = delta_tail(delta_bytes, error);
  if (!tail) return std::nullopt;

  ApplyState st;
  const auto fail = [&](const std::string& message) -> std::optional<DeltaInfo> {
    if (error != nullptr) *error = message;
    obs::count("serve.delta.rejected");
    return std::nullopt;
  };

  ByteReader r(*tail);
  DeltaInfo info;
  info.base_checksum = r.u64();
  info.target_checksum = r.u64();
  info.target_seed = r.u64();
  (void)r.u64();  // addresses_probed
  (void)r.u64();  // observed_links
  const std::uint8_t strings_flag = r.u8();
  if (r.failed()) return fail("delta tail truncated");
  if (strings_flag > 1) return fail("bad string replacement flag");
  info.replaces_strings = strings_flag == 1;
  if (strings_flag == 1 && !read_string_table(st, r, nullptr)) {
    return fail(st.error);
  }
  if (!scan_section<CountryTraits>(st, r, "country") ||
      !scan_section<AsTraits>(st, r, "AS") ||
      !scan_section<PrefixTraits>(st, r, "prefix") ||
      !scan_section<EndpointTraits>(st, r, "endpoint") ||
      !scan_section<MappingTraits>(st, r, "mapping")) {
    return fail(st.error);
  }
  const std::uint8_t links_flag = r.u8();
  if (r.failed()) return fail("delta tail truncated");
  if (links_flag > 1) return fail("bad link replacement flag");
  info.replaces_links = links_flag == 1;
  if (links_flag == 1 && !read_link_table(st, r, nullptr)) {
    return fail(st.error);
  }
  if (!r.exhausted()) return fail("trailing bytes after delta ops");
  info.ops = st.ops;
  return info;
}

}  // namespace itm::serve
