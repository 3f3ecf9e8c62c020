#include "core/export.h"

#include <iomanip>
#include <unordered_map>

namespace itm::core {

namespace {

// Minimal JSON string escaping (names here are ASCII identifiers, but keep
// the writer safe for arbitrary content).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string csv_escape(std::string_view field) {
  // RFC 4180: quote a field containing the separator, a quote or a line
  // break, doubling embedded quotes. Everything else passes through
  // verbatim, so existing exports of plain names are unchanged.
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void export_map_json(const TrafficMap& map, const Scenario& scenario,
                     std::ostream& os) {
  os << std::setprecision(10);
  os << "{\n";
  os << "  \"generator\": \"itm\",\n";
  os << "  \"seed\": " << scenario.config().seed << ",\n";

  // Component 1: users and activity.
  os << "  \"client_prefixes\": [";
  for (std::size_t i = 0; i < map.client_prefixes.size(); ++i) {
    if (i) os << ",";
    os << "\"" << map.client_prefixes[i].to_string() << "\"";
  }
  os << "],\n";
  os << "  \"client_ases\": [\n";
  for (std::size_t i = 0; i < map.client_ases.size(); ++i) {
    const Asn asn = map.client_ases[i];
    os << "    {\"asn\": " << asn.value() << ", \"name\": \""
       << json_escape(scenario.topo().graph.info(asn).name)
       << "\", \"activity\": " << map.activity.score(asn) << "}";
    os << (i + 1 < map.client_ases.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  // Component 2: serving infrastructure.
  std::unordered_map<Ipv4Addr, GeoPoint> located;
  for (const auto& server : map.server_locations) {
    located.emplace(server.address, server.location);
  }
  os << "  \"servers\": [\n";
  for (std::size_t i = 0; i < map.tls.endpoints.size(); ++i) {
    const auto& ep = map.tls.endpoints[i];
    os << "    {\"address\": \"" << ep.address.to_string()
       << "\", \"operator\": \"" << json_escape(ep.inferred_operator)
       << "\", \"origin_asn\": " << ep.origin_as.value() << ", \"offnet\": "
       << (ep.inferred_offnet ? "true" : "false");
    const auto it = located.find(ep.address);
    if (it != located.end()) {
      os << ", \"lat\": " << it->second.lat_deg << ", \"lon\": "
         << it->second.lon_deg;
    }
    os << "}" << (i + 1 < map.tls.endpoints.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  // Component 3: routes.
  os << "  \"observed_links\": " << map.public_view.link_count() << ",\n";
  os << "  \"recommended_links\": [\n";
  for (std::size_t i = 0; i < map.recommended_links.size(); ++i) {
    const auto& link = map.recommended_links[i];
    os << "    {\"a\": " << link.a.value() << ", \"b\": " << link.b.value()
       << ", \"score\": " << link.score << "}";
    os << (i + 1 < map.recommended_links.size() ? ",\n" : "\n");
  }
  os << "  ]\n";
  os << "}\n";
}

void export_activity_csv(const TrafficMap& map, const Scenario& scenario,
                         std::ostream& os) {
  os << "asn,name,activity_score\n";
  for (const Asn asn : map.client_ases) {
    os << asn.value() << "," << csv_escape(scenario.topo().graph.info(asn).name)
       << "," << map.activity.score(asn) << "\n";
  }
}

void export_servers_csv(const TrafficMap& map, const Scenario& scenario,
                        std::ostream& os) {
  (void)scenario;
  std::unordered_map<Ipv4Addr, GeoPoint> located;
  for (const auto& server : map.server_locations) {
    located.emplace(server.address, server.location);
  }
  os << "address,operator,origin_asn,offnet,lat,lon\n";
  for (const auto& ep : map.tls.endpoints) {
    os << ep.address.to_string() << "," << csv_escape(ep.inferred_operator)
       << ","
       << ep.origin_as.value() << "," << (ep.inferred_offnet ? 1 : 0) << ",";
    const auto it = located.find(ep.address);
    if (it != located.end()) {
      os << it->second.lat_deg << "," << it->second.lon_deg;
    } else {
      os << ",";
    }
    os << "\n";
  }
}

void export_recommended_links_csv(const TrafficMap& map,
                                  const Scenario& scenario,
                                  std::ostream& os) {
  const auto& graph = scenario.topo().graph;
  os << "asn_a,name_a,asn_b,name_b,score\n";
  for (const auto& link : map.recommended_links) {
    os << link.a.value() << "," << csv_escape(graph.info(link.a).name) << ","
       << link.b.value() << "," << csv_escape(graph.info(link.b).name) << ","
       << link.score << "\n";
  }
}

}  // namespace itm::core
