#include "serve/snapshot_writer.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>

#include "net/interner.h"
#include "net/ordered.h"
#include "obs/metrics.h"
#include "serve/format.h"
#include "serve/view.h"

namespace itm::serve {

SnapshotFrame::SnapshotFrame(std::size_t payload_bytes) {
  out_.reserve(kSnapshotFrameBytes + payload_bytes);
  (void)out_.extend(kSnapshotFrameBytes);
  ends_.reserve(kSectionCount);
}

void SnapshotFrame::close(SectionId id) {
  assert(ends_.empty() || ends_.back().first < static_cast<std::uint32_t>(id));
  ends_.emplace_back(static_cast<std::uint32_t>(id), out_.size());
}

std::string SnapshotFrame::finish(std::uint64_t seed) && {
  assert(ends_.size() == kSectionCount && ends_.back().second == out_.size());
  char* p = out_.at(0);
  std::memcpy(p, kSnapshotMagic.data(), kSnapshotMagic.size());
  put_u32(p + 8, kSnapshotVersion);
  put_u32(p + 12, kEndianMarker);
  p += kSnapshotHeaderBytes;
  put_u64(p, seed);
  put_u32(p + 8, kSectionCount);
  put_u32(p + 12, 0);  // reserved
  p += 16;
  std::uint64_t offset = kSnapshotFrameBytes;
  for (const auto& [id, end] : ends_) {
    put_u32(p, id);
    put_u32(p + 4, 0);  // reserved
    put_u64(p + 8, offset);
    put_u64(p + 16, end - offset);
    offset = end;
    p += 24;
  }
  std::string bytes = std::move(out_).take();
  put_u64(bytes.data() + 16,
          fnv1a64(std::string_view(bytes).substr(kSnapshotHeaderBytes)));
  obs::count("serve.snapshot.bytes_written", bytes.size());
  return bytes;
}

Snapshot compile_snapshot(const core::TrafficMap& map,
                          const core::Scenario& scenario) {
  Snapshot snap;
  const auto& topo = scenario.topo();
  const auto& graph = topo.graph;
  const auto& countries = topo.geography.countries();

  // String-section order: AS names in dense ASN order, then country names,
  // then operator names as the endpoints below first use them.
  net::StringTable strings;

  snap.seed = scenario.config().seed;
  snap.addresses_probed = map.tls.addresses_probed;
  snap.observed_links = map.public_view.link_count();

  // AS records in dense ASN order; activity via score() so absent ASes get
  // an exact 0.0, matching the in-memory estimate.
  std::unordered_set<std::uint32_t> client_set;
  for (const Asn asn : map.client_ases) client_set.insert(asn.value());
  snap.ases.reserve(graph.size());
  for (const auto& as : graph.ases()) {
    AsRecord rec;
    rec.asn = as.asn.value();
    rec.name_ref = strings.intern(as.name);
    rec.country = as.country.value();
    rec.type = static_cast<std::uint32_t>(as.type);
    rec.flags = client_set.contains(rec.asn) ? 1u : 0u;
    rec.activity = map.activity.score(as.asn);
    snap.ases.push_back(rec);
  }

  snap.countries.reserve(countries.size());
  for (const auto& country : countries) {
    CountryRecord rec;
    rec.country = country.id.value();
    rec.name_ref = strings.intern(country.name);
    snap.countries.push_back(rec);
  }

  // Client prefixes sorted for binary search, origins resolved once at
  // compile time so the engine never needs the address plan.
  snap.prefixes.reserve(map.client_prefixes.size());
  for (const Ipv4Prefix& p : map.client_prefixes) {
    PrefixRecord rec;
    rec.base = p.base().bits();
    rec.length = p.length();
    const auto origin = topo.addresses.origin_of(p);
    rec.origin_asn = origin ? origin->value() : kNoRef;
    snap.prefixes.push_back(rec);
  }
  std::sort(snap.prefixes.begin(), snap.prefixes.end(),
            [](const PrefixRecord& a, const PrefixRecord& b) {
              return std::pair{a.base, a.length} < std::pair{b.base, b.length};
            });

  // Endpoints sorted by address (the TLS sweep already merges in address
  // order; the sort is a format guarantee, not a correction).
  std::unordered_map<Ipv4Addr, GeoPoint> located;
  for (const auto& server : map.server_locations) {
    located.emplace(server.address, server.location);
  }
  snap.endpoints.reserve(map.tls.endpoints.size());
  for (const auto& ep : map.tls.endpoints) {
    EndpointRecord rec;
    rec.address = ep.address.bits();
    rec.origin_asn = ep.origin_as.value();
    rec.operator_ref = ep.inferred_operator.empty()
                           ? kNoRef
                           : strings.intern(ep.inferred_operator);
    if (ep.inferred_offnet) rec.flags |= 1u;
    if (const auto it = located.find(ep.address); it != located.end()) {
      rec.flags |= 2u;
      rec.lat_deg = it->second.lat_deg;
      rec.lon_deg = it->second.lon_deg;
    }
    snap.endpoints.push_back(rec);
  }
  std::sort(snap.endpoints.begin(), snap.endpoints.end(),
            [](const EndpointRecord& a, const EndpointRecord& b) {
              return a.address < b.address;
            });

  // Per-service mappings: services ascending, entries prefix-sorted.
  for (const auto sid : net::sorted_keys(map.user_mapping)) {
    ServiceMapping mapping;
    mapping.service = sid;
    const auto& sweep = map.user_mapping.at(sid);
    mapping.entries.reserve(sweep.size());
    for (const auto& [prefix, addr] : net::sorted_items(sweep)) {
      MappingEntry entry;
      entry.prefix_base = prefix.base().bits();
      entry.prefix_length = prefix.length();
      entry.address = addr.bits();
      mapping.entries.push_back(entry);
    }
    snap.mappings.push_back(std::move(mapping));
  }

  snap.links.reserve(map.recommended_links.size());
  for (const auto& link : map.recommended_links) {
    LinkRecord rec;
    rec.a = link.a.value();
    rec.b = link.b.value();
    rec.score = link.score;
    snap.links.push_back(rec);
  }

  snap.strings = strings.take();
  return snap;
}

std::string snapshot_bytes(const Snapshot& snapshot) {
  // Section payloads, packed in ascending id order through the record
  // codecs (view.h) into a buffer sized up front.
  std::size_t payload_bytes =
      strings_bytes(snapshot.strings) + 2 * sizeof(std::uint64_t) +
      table_bytes(snapshot.countries) + table_bytes(snapshot.ases) +
      table_bytes(snapshot.prefixes) + table_bytes(snapshot.endpoints) +
      sizeof(std::uint32_t) + table_bytes(snapshot.links);
  for (const auto& mapping : snapshot.mappings) {
    payload_bytes += mapping_bytes(mapping);
  }
  SnapshotFrame frame(payload_bytes);
  ByteWriter& out = frame.out();
  encode_strings(out, snapshot.strings);
  frame.close(SectionId::kStrings);
  out.u64(snapshot.addresses_probed);
  out.u64(snapshot.observed_links);
  frame.close(SectionId::kMeta);
  encode_table(out, snapshot.countries);
  frame.close(SectionId::kCountries);
  encode_table(out, snapshot.ases);
  frame.close(SectionId::kAsRecords);
  encode_table(out, snapshot.prefixes);
  frame.close(SectionId::kPrefixes);
  encode_table(out, snapshot.endpoints);
  frame.close(SectionId::kEndpoints);
  out.u32(static_cast<std::uint32_t>(snapshot.mappings.size()));
  for (const auto& mapping : snapshot.mappings) encode_mapping(out, mapping);
  frame.close(SectionId::kMappings);
  encode_table(out, snapshot.links);
  frame.close(SectionId::kLinks);
  assert(out.size() == kSnapshotFrameBytes + payload_bytes);
  return std::move(frame).finish(snapshot.seed);
}

void write_snapshot(const Snapshot& snapshot, std::ostream& os) {
  const std::string bytes = snapshot_bytes(snapshot);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void write_snapshot(const core::TrafficMap& map,
                    const core::Scenario& scenario, std::ostream& os) {
  write_snapshot(compile_snapshot(map, scenario), os);
}

}  // namespace itm::serve
