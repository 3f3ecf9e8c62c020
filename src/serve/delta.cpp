#include "serve/delta.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/format.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "serve/view.h"

namespace itm::serve {

namespace {

constexpr std::uint8_t kOpAdd = 1;
constexpr std::uint8_t kOpRemove = 2;
constexpr std::uint8_t kOpReplace = 3;

// ---- Keyed sections, over snapshot views ----
//
// Add and replace ops carry the record in its `.itms` wire layout, so the
// delta defines no layout of its own, and both sides work on wire bytes:
// the diff compares records by them (the delta's contract is *byte*
// identity, and operator== on doubles would conflate 0.0 with -0.0), and
// the applier copies them. A section's traits give its records' keys, the
// wire bytes of a run of records, and how an op payload is read.

using PrefixKey = std::pair<std::uint32_t, std::uint32_t>;

void encode_key(ByteWriter& w, std::uint32_t key) { w.u32(key); }
void encode_key(ByteWriter& w, PrefixKey key) {
  w.u32(key.first);
  w.u32(key.second);
}
void decode_key(ByteReader& r, std::uint32_t& key) { key = r.u32(); }
void decode_key(ByteReader& r, PrefixKey& key) {
  key.first = r.u32();
  key.second = r.u32();
}

// A record table, sorted by KeyOf.
template <typename Rec, typename K, K (*KeyOf)(const Rec&)>
struct TableSection {
  using Records = RecordSpan<Rec>;
  using Key = K;

  static Key key_at(const Records& records, std::size_t i) {
    return KeyOf(records[i]);
  }
  static std::size_t lower_bound(const Records& records, Key key) {
    return span_lower_bound(records,
                            [key](const Rec& rec) { return KeyOf(rec) < key; });
  }
  static std::string_view wire(const Records& records, std::size_t first,
                               std::size_t last) {
    return records.wire(first, last);
  }
  // An add/replace payload: one record, which carries its own key.
  static std::string_view read_payload(ByteReader& r, Key& key) {
    const std::string_view bytes = r.bytes(WireCodec<Rec>::kBytes);
    if (!r.failed()) key = KeyOf(WireCodec<Rec>::decode(bytes.data()));
    return bytes;
  }
};

std::uint32_t country_key(const CountryRecord& r) { return r.country; }
std::uint32_t as_key(const AsRecord& r) { return r.asn; }
PrefixKey prefix_key(const PrefixRecord& r) { return {r.base, r.length}; }
std::uint32_t endpoint_key(const EndpointRecord& r) { return r.address; }

using CountrySection = TableSection<CountryRecord, std::uint32_t, country_key>;
using AsSection = TableSection<AsRecord, std::uint32_t, as_key>;
using PrefixSection = TableSection<PrefixRecord, PrefixKey, prefix_key>;
using EndpointSection =
    TableSection<EndpointRecord, std::uint32_t, endpoint_key>;

// The service mappings, keyed by service id. A service's mapping swaps as
// a unit: service id plus entry table.
struct MappingSection {
  using Records = std::vector<ServiceMappingView>;
  using Key = std::uint32_t;

  static Key key_at(const Records& mappings, std::size_t i) {
    return mappings[i].service;
  }
  static std::size_t lower_bound(const Records& mappings, Key key) {
    const auto it = std::lower_bound(
        mappings.begin(), mappings.end(), key,
        [](const ServiceMappingView& m, Key k) { return m.service < k; });
    return static_cast<std::size_t>(it - mappings.begin());
  }
  // Mappings lie back to back in a view's section, so a run is one range.
  static std::string_view wire(const Records& mappings, std::size_t first,
                               std::size_t last) {
    if (first == last) return {};
    const std::string_view front = mapping_wire(mappings[first]);
    const std::string_view back = mapping_wire(mappings[last - 1]);
    return {front.data(),
            static_cast<std::size_t>(back.data() + back.size() - front.data())};
  }
  static std::string_view read_payload(ByteReader& r, Key& key) {
    const ServiceMappingView mapping = decode_mapping(r);
    if (r.failed()) return {};
    key = mapping.service;
    return mapping_wire(mapping);
  }
};

// ---- Diff side: two-pointer merge of key-sorted sections into op lists ----

template <typename Section, typename Records = typename Section::Records>
void diff_section(ByteWriter& w, const Records& base, const Records& target) {
  ByteWriter ops;
  std::uint32_t count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < base.size() || j < target.size()) {
    if (j == target.size() ||
        (i < base.size() &&
         Section::key_at(base, i) < Section::key_at(target, j))) {
      ops.u8(kOpRemove);
      encode_key(ops, Section::key_at(base, i));
      ++count;
      ++i;
    } else if (i == base.size() ||
               Section::key_at(target, j) < Section::key_at(base, i)) {
      ops.u8(kOpAdd);
      ops.bytes(Section::wire(target, j, j + 1));
      ++count;
      ++j;
    } else {
      if (Section::wire(base, i, i + 1) != Section::wire(target, j, j + 1)) {
        ops.u8(kOpReplace);
        ops.bytes(Section::wire(target, j, j + 1));
        ++count;
      }
      ++i;
      ++j;
    }
  }
  w.u32(count);
  w.bytes(ops.buffer());
}

// ---- Apply side: strict splice of base runs and op payloads ----

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

// Reads one op: its code, key and (add/replace) payload bytes. False on
// an unknown op code or truncation.
template <typename Section>
bool read_op(ApplyState& st, ByteReader& r, const char* what,
             std::uint8_t& op, typename Section::Key& key,
             std::string_view& payload) {
  op = r.u8();
  if (op == kOpRemove) {
    decode_key(r, key);
  } else if (op == kOpAdd || op == kOpReplace) {
    payload = Section::read_payload(r, key);
  } else {
    return st.fail(std::string(what) + " ops contain an unknown op code");
  }
  return !r.failed() || st.fail(std::string(what) + " ops truncated");
}

// Writes the section `base` becomes under the next op list of `r`: the
// base records no op touches are copied as verbatim runs between the op
// keys (each found by binary search), and add/replace payloads are copied
// as they travel. The section's leading count is patched in at the end.
template <typename Section, typename Records = typename Section::Records>
bool splice_section(ApplyState& st, ByteReader& r, const char* what,
                    const Records& base, ByteWriter& out) {
  const std::uint32_t count = r.u32();
  if (r.failed()) return st.fail(std::string(what) + " ops truncated");
  const std::size_t count_at = out.size();
  out.u32(0);
  std::size_t records = base.size();
  std::size_t i = 0;  // first base record neither copied nor dropped
  bool have_prev_key = false;
  typename Section::Key prev_key{};
  for (std::uint32_t n = 0; n < count; ++n) {
    std::uint8_t op = 0;
    typename Section::Key key{};
    std::string_view payload;
    if (!read_op<Section>(st, r, what, op, key, payload)) return false;
    if (have_prev_key && !(prev_key < key)) {
      return st.fail(std::string(what) + " ops not sorted by key");
    }
    prev_key = key;
    have_prev_key = true;

    // Keys ascend, so the op's position is never behind the cursor.
    const std::size_t at = Section::lower_bound(base, key);
    out.bytes(Section::wire(base, i, at));
    i = at;
    const bool present = at < base.size() && Section::key_at(base, at) == key;
    if (op == kOpAdd) {
      if (present) {
        return st.fail(std::string(what) + " add op targets an existing key");
      }
      out.bytes(payload);
      ++records;
    } else if (op == kOpRemove) {
      if (!present) {
        return st.fail(std::string(what) + " remove op targets a missing key");
      }
      ++i;
      --records;
    } else {
      if (!present) {
        return st.fail(std::string(what) +
                       " replace op targets a missing key");
      }
      out.bytes(payload);
      ++i;
    }
    ++st.ops;
  }
  out.bytes(Section::wire(base, i, base.size()));
  put_u32(out.at(count_at), static_cast<std::uint32_t>(records));
  return true;
}

// Reads an op list without a base — read_delta_info's structural check.
template <typename Section>
bool scan_section(ApplyState& st, ByteReader& r, const char* what) {
  const std::uint32_t count = r.u32();
  if (r.failed()) return st.fail(std::string(what) + " ops truncated");
  for (std::uint32_t n = 0; n < count; ++n) {
    std::uint8_t op = 0;
    typename Section::Key key{};
    std::string_view payload;
    if (!read_op<Section>(st, r, what, op, key, payload)) return false;
    ++st.ops;
  }
  return true;
}

// A wholesale section: a flag, then, when it is 1, the replacement in its
// section's snapshot encoding, so the bytes `skip` reads past are the
// target's section payload itself. Returns that payload, or `unchanged`
// when the flag is 0 (a replacement is never empty: it starts with a
// count); nullopt on failure.
template <typename Skip>
std::optional<std::string_view> read_whole(ApplyState& st,
                                           std::string_view tail,
                                           ByteReader& r, const char* what,
                                           std::string_view unchanged,
                                           Skip&& skip) {
  const std::uint8_t flag = r.u8();
  if (r.failed()) {
    st.fail("delta tail truncated");
    return std::nullopt;
  }
  if (flag > 1) {
    st.fail(std::string("bad ") + what + " replacement flag");
    return std::nullopt;
  }
  if (flag == 0) return unchanged;
  const std::size_t from = tail.size() - r.remaining();
  skip(r);
  if (r.failed()) {
    st.fail(std::string(what) + " replacement truncated");
    return std::nullopt;
  }
  return tail.substr(from, tail.size() - r.remaining() - from);
}

void skip_strings(ByteReader& r) {
  decode_strings(r, [](std::string_view) {});
}
void skip_links(ByteReader& r) { (void)decode_table<LinkRecord>(r); }

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
  const auto base = borrow_snapshot(base_bytes, &parse_error);
  if (!base) {
    if (error != nullptr) *error = "base snapshot: " + parse_error;
    return std::nullopt;
  }
  const auto target = borrow_snapshot(target_bytes, &parse_error);
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

  // The wholesale sections compare, and travel, as their payload bytes.
  const auto replace_whole = [&](SectionId id) {
    const std::string_view from = section_payload(base_bytes, id);
    const std::string_view to = section_payload(target_bytes, id);
    tail.u8(from == to ? 0 : 1);
    if (from != to) tail.bytes(to);
  };
  replace_whole(SectionId::kStrings);
  diff_section<CountrySection>(tail, base->countries, target->countries);
  diff_section<AsSection>(tail, base->ases, target->ases);
  diff_section<PrefixSection>(tail, base->prefixes, target->prefixes);
  diff_section<EndpointSection>(tail, base->endpoints, target->endpoints);
  diff_section<MappingSection>(tail, base->mappings, target->mappings);
  replace_whole(SectionId::kLinks);

  ByteWriter out;
  out.bytes(std::string_view(kDeltaMagic.data(), kDeltaMagic.size()));
  out.u32(kDeltaVersion);
  out.u32(kEndianMarker);
  out.u64(fnv1a64(tail.buffer()));
  out.bytes(tail.buffer());
  obs::count("serve.delta.diffs");
  obs::count("serve.delta.bytes_written", out.size());
  return std::move(out).take();
}

std::optional<std::string> apply_delta(const SnapshotView& base,
                                       std::string_view base_bytes,
                                       std::string_view delta_bytes,
                                       std::string* error) {
  const auto tail = delta_tail(delta_bytes, error);
  if (!tail) return std::nullopt;

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
  const std::uint64_t seed = r.u64();
  const std::uint64_t addresses_probed = r.u64();
  const std::uint64_t observed_links = r.u64();

  // The result is at most the base plus every delta byte, so one
  // reservation holds it.
  SnapshotFrame frame(base_bytes.size() + tail->size());
  ByteWriter& out = frame.out();
  const auto strings =
      read_whole(st, *tail, r, "string",
                 section_payload(base_bytes, SectionId::kStrings), skip_strings);
  if (!strings) return fail(st.error);
  out.bytes(*strings);
  frame.close(SectionId::kStrings);
  out.u64(addresses_probed);
  out.u64(observed_links);
  frame.close(SectionId::kMeta);

  const auto splice = [&](auto section, const char* what, const auto& records,
                          SectionId id) {
    using Section = decltype(section);
    if (!splice_section<Section>(st, r, what, records, out)) return false;
    frame.close(id);
    return true;
  };
  if (!splice(CountrySection{}, "country", base.countries,
              SectionId::kCountries) ||
      !splice(AsSection{}, "AS", base.ases, SectionId::kAsRecords) ||
      !splice(PrefixSection{}, "prefix", base.prefixes,
              SectionId::kPrefixes) ||
      !splice(EndpointSection{}, "endpoint", base.endpoints,
              SectionId::kEndpoints) ||
      !splice(MappingSection{}, "mapping", base.mappings,
              SectionId::kMappings)) {
    return fail(st.error);
  }

  const auto links =
      read_whole(st, *tail, r, "link",
                 section_payload(base_bytes, SectionId::kLinks), skip_links);
  if (!links) return fail(st.error);
  out.bytes(*links);
  frame.close(SectionId::kLinks);
  if (!r.exhausted()) return fail("trailing bytes after delta ops");

  // The proof obligation: the spliced snapshot must BE the target, byte for
  // byte. The format is canonical, so checksum equality is bytes equality;
  // anything the op checks missed dies here.
  std::string spliced = std::move(frame).finish(seed);
  if (snapshot_checksum(spliced) != target_checksum) {
    return fail("applied result does not match the delta's target checksum");
  }
  obs::count("serve.delta.applies");
  obs::count("serve.delta.ops_applied", st.ops);
  return spliced;
}

std::optional<std::string> apply_delta(std::string_view base_bytes,
                                       std::string_view delta_bytes,
                                       std::string* error) {
  std::string parse_error;
  const auto base = borrow_snapshot(base_bytes, &parse_error);
  if (!base) {
    if (error != nullptr) *error = "base snapshot: " + parse_error;
    return std::nullopt;
  }
  return apply_delta(*base, base_bytes, delta_bytes, error);
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
  const auto strings = read_whole(st, *tail, r, "string", {}, skip_strings);
  if (!strings) return fail(st.error);
  info.replaces_strings = !strings->empty();
  if (!scan_section<CountrySection>(st, r, "country") ||
      !scan_section<AsSection>(st, r, "AS") ||
      !scan_section<PrefixSection>(st, r, "prefix") ||
      !scan_section<EndpointSection>(st, r, "endpoint") ||
      !scan_section<MappingSection>(st, r, "mapping")) {
    return fail(st.error);
  }
  const auto links = read_whole(st, *tail, r, "link", {}, skip_links);
  if (!links) return fail(st.error);
  info.replaces_links = !links->empty();
  if (!r.exhausted()) return fail("trailing bytes after delta ops");
  info.ops = st.ops;
  return info;
}

}  // namespace itm::serve
