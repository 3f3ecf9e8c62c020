#include "serve/snapshot_writer.h"

#include <algorithm>
#include <unordered_set>

#include "net/interner.h"
#include "net/ordered.h"
#include "obs/metrics.h"
#include "serve/format.h"

namespace itm::serve {

namespace {

void write_section(ByteWriter& tail, SectionId id, const ByteWriter& payload,
                   std::vector<std::pair<std::uint32_t, std::uint64_t>>&
                       table) {
  table.emplace_back(static_cast<std::uint32_t>(id), payload.size());
  tail.bytes(payload.buffer());
}

}  // namespace

Snapshot compile_snapshot(const core::TrafficMap& map,
                          const core::Scenario& scenario) {
  Snapshot snap;
  const auto& topo = scenario.topo();
  const auto& table = topo.table;

  // The AsTable already interned AS names (dense ASN order) and country
  // names — exactly this file's string-section prefix — so seed the table
  // from it and only intern operator names below.
  net::StringTable strings = table.strings();

  snap.seed = scenario.config().seed;
  snap.addresses_probed = map.tls.addresses_probed;
  snap.observed_links = map.public_view.link_count();

  // AS records in dense ASN order; activity via score() so absent ASes get
  // an exact 0.0, matching the in-memory estimate.
  std::unordered_set<std::uint32_t> client_set;
  for (const Asn asn : map.client_ases) client_set.insert(asn.value());
  snap.ases.reserve(table.size());
  for (std::uint32_t i = 0; i < table.size(); ++i) {
    const Asn asn{i};
    AsRecord rec;
    rec.asn = i;
    rec.name_ref = table.name_ref(asn);
    rec.country = table.country(asn).value();
    rec.type = static_cast<std::uint32_t>(table.type(asn));
    rec.flags = client_set.contains(i) ? 1u : 0u;
    rec.activity = map.activity.score(asn);
    snap.ases.push_back(rec);
  }

  snap.countries.reserve(topo.geography.countries().size());
  for (const auto& country : topo.geography.countries()) {
    CountryRecord rec;
    rec.country = country.id.value();
    rec.name_ref = table.country_name_ref(country.id);
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

void write_snapshot(const Snapshot& snapshot, std::ostream& os) {
  // Serialize each section payload, then assemble the canonical file:
  // sections in ascending id order, tightly packed after the table.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> table;  // (id, size)
  ByteWriter sections;

  {
    ByteWriter s;
    s.u32(static_cast<std::uint32_t>(snapshot.strings.size()));
    for (const auto& str : snapshot.strings) {
      s.u32(static_cast<std::uint32_t>(str.size()));
      s.bytes(str);
    }
    write_section(sections, SectionId::kStrings, s, table);
  }
  {
    ByteWriter s;
    s.u64(snapshot.addresses_probed);
    s.u64(snapshot.observed_links);
    write_section(sections, SectionId::kMeta, s, table);
  }
  {
    ByteWriter s;
    s.u32(static_cast<std::uint32_t>(snapshot.countries.size()));
    for (const auto& c : snapshot.countries) {
      s.u32(c.country);
      s.u32(c.name_ref);
    }
    write_section(sections, SectionId::kCountries, s, table);
  }
  {
    ByteWriter s;
    s.u32(static_cast<std::uint32_t>(snapshot.ases.size()));
    for (const auto& as : snapshot.ases) {
      s.u32(as.asn);
      s.u32(as.name_ref);
      s.u32(as.country);
      s.u32(as.type);
      s.u32(as.flags);
      s.f64(as.activity);
    }
    write_section(sections, SectionId::kAsRecords, s, table);
  }
  {
    ByteWriter s;
    s.u32(static_cast<std::uint32_t>(snapshot.prefixes.size()));
    for (const auto& p : snapshot.prefixes) {
      s.u32(p.base);
      s.u32(p.length);
      s.u32(p.origin_asn);
    }
    write_section(sections, SectionId::kPrefixes, s, table);
  }
  {
    ByteWriter s;
    s.u32(static_cast<std::uint32_t>(snapshot.endpoints.size()));
    for (const auto& ep : snapshot.endpoints) {
      s.u32(ep.address);
      s.u32(ep.origin_asn);
      s.u32(ep.operator_ref);
      s.u32(ep.flags);
      s.f64(ep.lat_deg);
      s.f64(ep.lon_deg);
    }
    write_section(sections, SectionId::kEndpoints, s, table);
  }
  {
    ByteWriter s;
    s.u32(static_cast<std::uint32_t>(snapshot.mappings.size()));
    for (const auto& mapping : snapshot.mappings) {
      s.u32(mapping.service);
      s.u32(static_cast<std::uint32_t>(mapping.entries.size()));
      for (const auto& entry : mapping.entries) {
        s.u32(entry.prefix_base);
        s.u32(entry.prefix_length);
        s.u32(entry.address);
      }
    }
    write_section(sections, SectionId::kMappings, s, table);
  }
  {
    ByteWriter s;
    s.u32(static_cast<std::uint32_t>(snapshot.links.size()));
    for (const auto& link : snapshot.links) {
      s.u32(link.a);
      s.u32(link.b);
      s.f64(link.score);
    }
    write_section(sections, SectionId::kLinks, s, table);
  }

  // Tail = seed + section table + payloads; the checksum covers all of it.
  const std::size_t header_size = 8 + 4 + 4 + 8;  // magic,version,endian,sum
  const std::size_t table_size = 8 + 4 + 4 + table.size() * 24;
  ByteWriter tail;
  tail.u64(snapshot.seed);
  tail.u32(static_cast<std::uint32_t>(table.size()));
  tail.u32(0);  // reserved
  std::uint64_t offset = header_size + table_size;
  for (const auto& [id, size] : table) {
    tail.u32(id);
    tail.u32(0);  // reserved
    tail.u64(offset);
    tail.u64(size);
    offset += size;
  }
  tail.bytes(sections.buffer());

  ByteWriter header;
  header.bytes(std::string_view(kSnapshotMagic.data(), kSnapshotMagic.size()));
  header.u32(kSnapshotVersion);
  header.u32(kEndianMarker);
  header.u64(fnv1a64(tail.buffer()));
  os.write(header.buffer().data(),
           static_cast<std::streamsize>(header.size()));
  os.write(tail.buffer().data(), static_cast<std::streamsize>(tail.size()));

  obs::count("serve.snapshot.bytes_written", header.size() + tail.size());
}

void write_snapshot(const core::TrafficMap& map,
                    const core::Scenario& scenario, std::ostream& os) {
  write_snapshot(compile_snapshot(map, scenario), os);
}

}  // namespace itm::serve
