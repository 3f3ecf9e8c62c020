#include "serve/snapshot_reader.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "serve/format.h"

namespace itm::serve {

namespace {

// Local error channel: fail() records the first diagnostic and every
// subsequent check short-circuits, so validation code reads top-to-bottom.
struct Parser {
  std::string error;
  bool failed = false;

  bool fail(const std::string& message) {
    if (!failed) {
      failed = true;
      error = message;
    }
    return false;
  }
};

bool check(Parser& p, bool ok, const std::string& message) {
  if (!ok) p.fail(message);
  return ok && !p.failed;
}

// Every section decodes through the shared codecs (view.h) straight into
// the borrowed view, so the returned view stays zero-copy while
// truncation, trailing bytes and per-record invariants are all checked
// once, up front.

bool validate_strings(Parser& p, std::string_view payload,
                      std::vector<std::string_view>& out) {
  ByteReader r(payload);
  decode_strings(r, [&out](std::string_view s) { out.push_back(s); });
  if (!check(p, !r.failed(), "string table truncated")) return false;
  return check(p, r.exhausted(), "string table has trailing bytes");
}

bool validate_meta(Parser& p, std::string_view payload, SnapshotView& view) {
  ByteReader r(payload);
  view.addresses_probed = r.u64();
  view.observed_links = r.u64();
  if (!check(p, !r.failed(), "meta section truncated")) return false;
  return check(p, r.exhausted(), "meta section has trailing bytes");
}

// A record-table section: its size is exactly 4 + count x kBytes.
template <typename Rec>
bool borrow_table(Parser& p, std::string_view payload, const std::string& what,
                  RecordSpan<Rec>& out) {
  ByteReader r(payload);
  out = decode_table<Rec>(r);
  if (!check(p, !r.failed(), what + " truncated")) return false;
  return check(p, r.exhausted(), what + " has trailing bytes");
}

// Runs `invalid(prev, rec)` over consecutive records (prev is null for the
// first) and fails with the first diagnostic it returns.
template <typename Rec, typename Invalid>
bool check_records(Parser& p, const RecordSpan<Rec>& records,
                   Invalid&& invalid) {
  Rec prev;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Rec rec = records[i];
    if (const char* why = invalid(i > 0 ? &prev : nullptr, rec)) {
      return p.fail(why);
    }
    prev = rec;
  }
  return true;
}

bool validate_mappings(Parser& p, std::string_view payload,
                       std::vector<ServiceMappingView>& out) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  out.reserve(std::min<std::size_t>(count, r.remaining() / 8));
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    const ServiceMappingView mapping = decode_mapping(r);
    if (r.failed()) break;
    const bool entries_ok = check_records(
        p, mapping.entries,
        [](const MappingEntry* prev, const MappingEntry& e) -> const char* {
          if (e.prefix_length > 32) return "mapping prefix length out of range";
          if (prev != nullptr &&
              !(std::pair{prev->prefix_base, prev->prefix_length} <
                std::pair{e.prefix_base, e.prefix_length})) {
            return "mapping entries not sorted by prefix";
          }
          return nullptr;
        });
    if (!entries_ok) return false;
    if (!out.empty() && !check(p, out.back().service < mapping.service,
                               "service mappings not sorted by id")) {
      return false;
    }
    out.push_back(mapping);
  }
  if (!check(p, !r.failed(), "mapping section truncated")) return false;
  return check(p, r.exhausted(), "mapping section has trailing bytes");
}

}  // namespace

std::optional<SnapshotView> borrow_snapshot(std::string_view bytes,
                                            std::string* error) {
  Parser p;
  const auto fail = [&](const char* message) -> std::optional<SnapshotView> {
    p.fail(message);
    if (error != nullptr) *error = p.error;
    obs::count("serve.snapshot.load_rejected");
    return std::nullopt;
  };

  if (bytes.size() < kSnapshotHeaderBytes) {
    return fail("file shorter than header");
  }
  ByteReader header(bytes.substr(0, kSnapshotHeaderBytes));
  const auto magic = header.bytes(kSnapshotMagic.size());
  if (magic != std::string_view(kSnapshotMagic.data(), kSnapshotMagic.size())) {
    return fail("bad magic (not an .itms snapshot)");
  }
  if (header.u32() != kSnapshotVersion) return fail("unsupported version");
  if (header.u32() != kEndianMarker) return fail("endianness marker mismatch");
  const std::uint64_t checksum = header.u64();

  const std::string_view tail = bytes.substr(kSnapshotHeaderBytes);
  if (fnv1a64(tail) != checksum) {
    return fail("checksum mismatch (corrupted snapshot)");
  }

  ByteReader t(tail);
  SnapshotView view;
  view.seed = t.u64();
  const std::uint32_t section_count = t.u32();
  if (t.u32() != 0) return fail("reserved header field not zero");
  if (t.failed()) return fail("section table truncated");

  // The canonical layout: ascending unique ids, payloads tightly packed
  // immediately after the table, covering the file exactly.
  struct Section {
    std::uint32_t id;
    std::uint64_t offset;
    std::uint64_t size;
  };
  std::vector<Section> sections;
  sections.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    Section s{};
    s.id = t.u32();
    if (t.u32() != 0) return fail("reserved section field not zero");
    s.offset = t.u64();
    s.size = t.u64();
    if (t.failed()) return fail("section table truncated");
    sections.push_back(s);
  }
  std::uint64_t expected_offset = kSnapshotHeaderBytes + 8 + 4 + 4 +
                                  std::uint64_t{section_count} * 24;
  for (const auto& s : sections) {
    if (s.offset != expected_offset) return fail("sections not tightly packed");
    if (s.offset + s.size > bytes.size()) return fail("section out of bounds");
    expected_offset += s.size;
  }
  if (expected_offset != bytes.size()) {
    return fail("trailing bytes after last section");
  }
  for (std::size_t i = 1; i < sections.size(); ++i) {
    if (sections[i - 1].id >= sections[i].id) {
      return fail("sections not in ascending id order");
    }
  }

  const auto payload = [&](SectionId id) -> std::string_view {
    for (const auto& s : sections) {
      if (s.id == static_cast<std::uint32_t>(id)) {
        return bytes.substr(s.offset, s.size);
      }
    }
    return {};
  };
  // Every v1 section is required, and no other ids are defined.
  for (const auto& s : sections) {
    if (s.id < 1 || s.id > kSectionCount) return fail("unknown section id");
  }
  if (sections.size() != kSectionCount) {
    return fail("missing required section");
  }

  bool ok = validate_strings(p, payload(SectionId::kStrings), view.strings);
  ok = ok && validate_meta(p, payload(SectionId::kMeta), view);
  const std::size_t strings = view.strings.size();
  ok = ok &&
       borrow_table(p, payload(SectionId::kCountries), "country section",
                    view.countries) &&
       check_records(p, view.countries,
                     [strings](const CountryRecord* prev,
                               const CountryRecord& rec) -> const char* {
                       if (rec.name_ref >= strings) {
                         return "country name reference out of range";
                       }
                       if (prev != nullptr && prev->country >= rec.country) {
                         return "country records not sorted by id";
                       }
                       return nullptr;
                     });
  ok = ok &&
       borrow_table(p, payload(SectionId::kAsRecords), "AS section",
                    view.ases) &&
       check_records(p, view.ases,
                     [strings](const AsRecord* prev,
                               const AsRecord& rec) -> const char* {
                       if (rec.name_ref >= strings) {
                         return "AS name reference out of range";
                       }
                       if (prev != nullptr && prev->asn >= rec.asn) {
                         return "AS records not sorted by ASN";
                       }
                       return nullptr;
                     });
  ok = ok &&
       borrow_table(p, payload(SectionId::kPrefixes), "prefix section",
                    view.prefixes) &&
       check_records(p, view.prefixes,
                     [](const PrefixRecord* prev,
                        const PrefixRecord& rec) -> const char* {
                       if (rec.length > 32) return "prefix length out of range";
                       if (prev == nullptr) return nullptr;
                       if (!(std::pair{prev->base, prev->length} <
                             std::pair{rec.base, rec.length})) {
                         return "prefix records not sorted";
                       }
                       // Disjointness keeps point lookup a single binary
                       // search.
                       if (prev->prefix().contains(rec.prefix())) {
                         return "prefix records overlap";
                       }
                       return nullptr;
                     });
  ok = ok &&
       borrow_table(p, payload(SectionId::kEndpoints), "endpoint section",
                    view.endpoints) &&
       check_records(p, view.endpoints,
                     [strings](const EndpointRecord* prev,
                               const EndpointRecord& rec) -> const char* {
                       if (rec.operator_ref != kNoRef &&
                           rec.operator_ref >= strings) {
                         return "endpoint operator reference out of range";
                       }
                       if (prev != nullptr && prev->address >= rec.address) {
                         return "endpoint records not sorted by address";
                       }
                       return nullptr;
                     });
  ok = ok && validate_mappings(p, payload(SectionId::kMappings), view.mappings);
  ok = ok && borrow_table(p, payload(SectionId::kLinks), "link section",
                          view.links);
  if (!ok || p.failed) {
    if (error != nullptr) *error = p.error;
    obs::count("serve.snapshot.load_rejected");
    return std::nullopt;
  }

  obs::count("serve.snapshot.loads");
  obs::count("serve.snapshot.bytes_read", bytes.size());
  return view;
}

std::optional<Snapshot> read_snapshot(std::string_view bytes,
                                      std::string* error) {
  const auto view = borrow_snapshot(bytes, error);
  if (!view) return std::nullopt;

  // Materialize owned storage from the validated view. Every invariant was
  // already checked, so this is a straight copy; re-serializing the result
  // reproduces `bytes` exactly (the round-trip property test).
  Snapshot snap;
  snap.seed = view->seed;
  snap.addresses_probed = view->addresses_probed;
  snap.observed_links = view->observed_links;
  snap.strings.assign(view->strings.begin(), view->strings.end());
  snap.countries = to_vector(view->countries);
  snap.ases = to_vector(view->ases);
  snap.prefixes = to_vector(view->prefixes);
  snap.endpoints = to_vector(view->endpoints);
  snap.mappings.reserve(view->mappings.size());
  for (const ServiceMappingView& m : view->mappings) {
    snap.mappings.push_back({m.service, to_vector(m.entries)});
  }
  snap.links = to_vector(view->links);
  return snap;
}

std::uint64_t snapshot_checksum(std::string_view bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) return 0;
  return wire_u64(bytes.data() + 8 + 4 + 4);
}

std::string_view section_payload(std::string_view bytes, SectionId id) {
  // Canonical: section i + 1 is table entry i, {id, reserved, offset, size}.
  const char* entry = bytes.data() + kSnapshotHeaderBytes + 8 + 4 + 4 +
                      (static_cast<std::size_t>(id) - 1) * 24;
  return bytes.substr(wire_u64(entry + 8), wire_u64(entry + 16));
}

}  // namespace itm::serve
