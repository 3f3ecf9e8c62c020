// itm — command-line front end to the Internet-traffic-map toolkit.
//
//   itm generate [--seed N] [--scale tiny|default|large|medium|huge]
//       Generate a synthetic Internet and print its inventory.
//   itm map [--seed N] [--scale S] [--threads N] [--json FILE] [--csv PREFIX]
//           [--metrics-out FILE] [--metrics-full] [--trace-out FILE]
//           [--events-out FILE] [--progress]
//       Build the traffic map from public-data measurements; optionally
//       export JSON and/or CSV artifacts. --threads shards the scan and
//       routing stages (0 = hardware concurrency, 1 = serial); the map is
//       byte-identical for every thread count. --metrics-out writes the
//       deterministic pipeline metrics (also byte-identical across thread
//       counts; add --metrics-full to append the wall-clock section —
//       timings, RSS, imbalance, latency quantiles — for `itm obs report`);
//       --trace-out writes a Chrome trace-event JSON loadable in Perfetto;
//       --events-out journals the last N pipeline events as JSONL (flushed
//       even when the build dies on a signal — the flight recorder);
//       --progress prints a ~1 Hz heartbeat with per-stage ETA to stderr.
//   itm outage <as-name> [--seed N] [--scale S]
//       Map-based outage estimate plus ground-truth what-if simulation.
//   itm path <src-as> <dst-as> [--seed N] [--scale S]
//       BGP best path and traceroute between two ASes.
//   itm top [--seed N] [--scale S]
//       Service and hypergiant traffic leaderboard (ground truth).
//   itm rel-export <file> [--seed N] [--scale S]
//       Write the AS graph in CAIDA as-rel format.
//   itm rel-path <file> <asn-a> <asn-b>
//       Load an external as-rel file (e.g. CAIDA serial-1) and print the
//       Gao-Rexford best path between two ASNs.
//   itm snapshot --out FILE [--seed N] [--scale S] [--threads N]
//               [--metrics-out FILE]
//       Build the traffic map and compile it into a versioned, checksummed
//       `.itms` snapshot — the serving artifact. Byte-identical for every
//       --threads value.
//   itm serve --snapshot FILE --queries FILE [--threads N] [--cache-size N]
//             [--metrics-out FILE]
//       `itm served --stdio` with FILE as the session's input: maps an
//       `.itms` snapshot (zero-copy, validated at map time) and answers
//       the queries file on stdout, one answer line per query line, in
//       input order. See serve/query_engine.h for the verbs and
//       serve/server.h for the session rules (blank and `#` lines get no
//       reply; control verbs work here too). A truncated or corrupted
//       snapshot is a runtime error (exit 4), never an exception.
//   itm served --snapshot FILE [--listen SOCK | --stdio] [--threads N]
//              [--cache-size N] [--events-out FILE] [--metrics-out FILE]
//       Resident query server: keeps the snapshot mapped and answers
//       sessions over stdio (default) or an AF_UNIX socket, dispatching
//       batches across N sharded workers, with up to --cache-size answers
//       cached per epoch (default 1024). Control verbs `swap-snapshot
//       <file>` and `apply-delta <file>` hot-swap the serving epoch with
//       RCU-style grace (in-flight queries finish on the old epoch);
//       `epoch` prints id/checksum/latency quantiles. A line longer than
//       8192 bytes ends its session with one error line. SIGTERM/SIGINT
//       drain in-flight queries, flush the journal, and exit 0.
//       --metrics-out (both commands) writes serve.queries and
//       serve.cache.{hits,misses,evictions} at exit.
//   itm snapshot-diff <old.itms> <new.itms> --out FILE
//       Compute a versioned, checksummed `.itmsd` delta that turns the
//       old snapshot into the new one (see serve/delta.h).
//   itm snapshot-apply <base.itms> <delta.itmsd> --out FILE
//       Apply a delta to a base snapshot; the output is byte-identical to
//       the full target snapshot the delta was computed against.
//   itm obs report <metrics.json> [--baseline <metrics.json>]
//                  [--perf-tolerance X]
//       Per-stage run summary (wall time, RSS delta, shard imbalance, top
//       counters, latency quantiles) from a `--metrics-out --metrics-full`
//       export or a BENCH_<tier>.json record (one schema). With --baseline,
//       diffs two runs with per-metric tolerance classes (deterministic:
//       exact; wall-clock: ratio band of --perf-tolerance X, a finite
//       X >= 1, default x25) and exits 1 on regression, including a
//       baseline key the current run lacks.
//   itm obs trace <trace.json>
//       Per-stage critical-path and shard-imbalance stats from a
//       `--trace-out` Chrome trace.
//   itm version
//       Print build information (compiler, build type, sanitizer flags).
//
// Numeric flags are strict: --seed and --cache-size take any unsigned
// 64-bit decimal and --threads 0..1024; anything else, trailing characters
// included, is bad usage.
//
// Exit codes: 0 success, 1 regression (itm obs report --baseline only),
// 2 bad usage (missing operand/value, unknown flag, malformed number),
// 3 unknown subcommand, 4 runtime error (unknown AS, unreadable file).
#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "core/export.h"
#include "core/report.h"
#include "core/scale.h"
#include "core/scenario.h"
#include "core/traffic_map.h"
#include "core/whatif.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "net/executor.h"
#include "net/parse.h"
#include "serve/delta.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "topology/serialization.h"
#include "routing/bgp.h"
#include "scan/traceroute.h"

namespace {

using namespace itm;

// Distinct exit codes so scripts can tell misuse from a missing input.
constexpr int kExitUsage = 2;           // bad usage: operands/values/flags
constexpr int kExitUnknownCommand = 3;  // no such subcommand
constexpr int kExitRuntime = 4;         // valid usage, failed to execute

struct CliOptions {
  // --seed; unset keeps the scale's own (42, or a pinned tier's seed).
  std::optional<std::uint64_t> seed;
  std::string scale = "default";
  // Worker threads for map builds: 0 = hardware concurrency, 1 = the exact
  // legacy serial path. Output is byte-identical for every value.
  std::size_t threads = 0;
  std::optional<std::string> json_path;
  std::optional<std::string> csv_prefix;
  std::optional<std::string> metrics_path;
  bool metrics_full = false;  // append the wall-clock section to --metrics-out
  std::optional<std::string> trace_path;
  std::optional<std::string> events_path;    // flight-recorder journal
  bool progress = false;                     // ~1 Hz heartbeat on stderr
  std::optional<std::string> out_path;       // itm snapshot --out
  std::optional<std::string> snapshot_path;  // itm serve[d] --snapshot
  std::optional<std::string> queries_path;   // itm serve --queries
  // itm serve[d], answers cached per epoch.
  std::size_t cache_size = serve::ServedOptions{}.cache_capacity;
  std::optional<std::string> listen_path;    // itm served --listen
  bool stdio = false;                        // itm served --stdio
  std::optional<std::string> baseline_path;  // itm obs report --baseline
  double perf_tolerance = 25.0;              // itm obs report ratio band
  std::vector<std::string> positional;
  // --scale/--seed/--threads resolved once (core::resolve_scale): the world
  // every command generates and the options the map-building ones use.
  core::ScenarioConfig scenario;
  core::MapBuildOptions build;
};

CliOptions parse(int argc, char** argv, int first) {
  CliOptions options;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    // Numeric flags are parsed strictly: a malformed or out-of-range value
    // is bad usage, never some other number.
    const auto number = [&](std::uint64_t max) {
      const std::string value = next();
      const auto parsed = parse_u64(value, max);
      if (!parsed) {
        std::cerr << "bad value '" << value << "' for " << arg
                  << " (expected an integer from 0 to " << max << ")\n";
        std::exit(kExitUsage);
      }
      return *parsed;
    };
    if (arg == "--seed") {
      options.seed = number(std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--scale") {
      options.scale = next();
    } else if (arg == "--threads") {
      options.threads = number(kMaxThreads);
    } else if (arg == "--json") {
      options.json_path = next();
    } else if (arg == "--csv") {
      options.csv_prefix = next();
    } else if (arg == "--metrics-out") {
      options.metrics_path = next();
    } else if (arg == "--metrics-full") {
      options.metrics_full = true;
    } else if (arg == "--trace-out") {
      options.trace_path = next();
    } else if (arg == "--events-out") {
      options.events_path = next();
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg == "--baseline") {
      options.baseline_path = next();
    } else if (arg == "--perf-tolerance") {
      const std::string value = next();
      char* end = nullptr;
      options.perf_tolerance = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' ||
          !std::isfinite(options.perf_tolerance) ||
          options.perf_tolerance < 1) {
        std::cerr << "bad value '" << value << "' for " << arg
                  << " (expected a finite number >= 1)\n";
        std::exit(kExitUsage);
      }
    } else if (arg == "--out") {
      options.out_path = next();
    } else if (arg == "--snapshot") {
      options.snapshot_path = next();
    } else if (arg == "--queries") {
      options.queries_path = next();
    } else if (arg == "--cache-size") {
      options.cache_size = number(std::numeric_limits<std::size_t>::max());
    } else if (arg == "--listen") {
      options.listen_path = next();
    } else if (arg == "--stdio") {
      options.stdio = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      std::exit(kExitUsage);
    } else {
      options.positional.push_back(arg);
    }
  }
  if (!core::resolve_scale(options.scale, options.seed, options.scenario,
                           options.build)) {
    std::cerr << "unknown scale '" << options.scale
              << "' (expected tiny|default|large|medium|huge)\n";
    std::exit(kExitUsage);
  }
  options.build.threads = options.threads;
  return options;
}

// Run-scoped flight recorder + progress heartbeat, driven by --events-out /
// --progress. The recorder's crash handlers stay installed for the rest of
// the process (that is their point); the destructor handles the normal-exit
// flush and stops the heartbeat thread.
class RunInstrumentation {
 public:
  explicit RunInstrumentation(const CliOptions& options) {
    if (options.events_path) {
      try {
        obs::recorder().enable(*options.events_path);
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        std::exit(kExitRuntime);
      }
      obs::install_crash_flush();
      char fields[160];
      std::snprintf(fields, sizeof fields,
                    "\"seed\": %llu, \"scale\": \"%s\", \"threads\": %zu",
                    static_cast<unsigned long long>(options.scenario.seed),
                    options.scale.c_str(), options.threads);
      obs::recorder().event("run.begin", fields);
    }
    if (options.progress) obs::progress().enable();
  }
  ~RunInstrumentation() {
    obs::progress().disable();
    if (obs::recorder().enabled()) {
      char fields[96];
      std::snprintf(fields, sizeof fields, "\"peak_rss_bytes\": %llu",
                    static_cast<unsigned long long>(obs::peak_rss_bytes()));
      obs::recorder().event("run.end", fields);
      obs::recorder().flush();
    }
  }
  RunInstrumentation(const RunInstrumentation&) = delete;
  RunInstrumentation& operator=(const RunInstrumentation&) = delete;
};

std::optional<Asn> find_as(const core::Scenario& scenario,
                           const std::string& name) {
  for (const auto& as : scenario.topo().graph.ases()) {
    if (as.name == name) return as.asn;
  }
  return std::nullopt;
}

int cmd_generate(const CliOptions& options) {
  auto scenario = core::Scenario::generate(options.scenario);
  const auto& topo = scenario->topo();
  core::Table table({"inventory", "count"});
  table.row("ASes", topo.graph.size());
  table.row("  tier-1", topo.tier1s.size());
  table.row("  transit", topo.transits.size());
  table.row("  access (eyeball)", topo.accesses.size());
  table.row("  content", topo.contents.size());
  table.row("  hypergiant", topo.hypergiants.size());
  table.row("AS-level links", topo.graph.links().size());
  table.row("countries", topo.geography.countries().size());
  table.row("colocation facilities", topo.geography.facilities().size());
  table.row("IXPs (route servers)", topo.ixps.size());
  table.row("routable /24s", topo.addresses.total_slash24_count());
  table.row("user /24s", scenario->users().size());
  table.row("services", scenario->catalog().size());
  table.row("CDN PoPs", scenario->deployment().pops().size());
  table.row("CDN front ends", scenario->deployment().front_ends().size());
  table.print();
  std::cout << "total users: "
            << static_cast<std::uint64_t>(scenario->users().total_users())
            << ", daily traffic: "
            << core::num(scenario->matrix().total_bytes() / 1e12, 2)
            << " TB\n";
  return 0;
}

int cmd_map(const CliOptions& options) {
  // One registry + tracer per invocation, current for scenario generation
  // and the build, so topology metrics and every stage span land in the
  // exported artifacts.
  obs::MetricsRegistry registry;
  obs::Tracer trace;
  const obs::ScopedMetrics metrics_scope(registry);
  const obs::ScopedTracer trace_scope(trace);
  const RunInstrumentation instrumentation(options);

  // Stage 0 of the run: a SIGTERM during generation must still leave a
  // journal naming the stage in flight, exactly like the build stages.
  auto scenario = [&options] {
    const obs::StageScope stage("map.generate", 0, 5);
    return core::Scenario::generate(options.scenario);
  }();
  core::MapBuilder builder(*scenario);
  std::cerr << "building the traffic map...\n";
  const auto map = builder.build(options.build);
  const auto& timings = builder.last_timings();
  std::cerr << "stage wall time: probing " << core::num(timings.workload_probe_s, 2)
            << " s, tls " << core::num(timings.tls_scan_s, 2)
            << " s, ecs " << core::num(timings.ecs_map_s, 2)
            << " s, routing " << core::num(timings.routing_s, 2)
            << " s, inference " << core::num(timings.inference_s, 2)
            << " s\n";
  core::Table table({"map component", "value"});
  table.row("client /24s detected", map.client_prefixes.size());
  table.row("client ASes", map.client_ases.size());
  table.row("TLS endpoints", map.tls.endpoints.size());
  table.row("geolocated servers", map.server_locations.size());
  table.row("ECS-mapped services", map.user_mapping.size());
  table.row("observed links", map.public_view.link_count());
  table.row("recommended links", map.recommended_links.size());
  table.print();
  if (options.json_path) {
    std::ofstream out(*options.json_path);
    core::export_map_json(map, *scenario, out);
    std::cout << "wrote " << *options.json_path << "\n";
  }
  if (options.csv_prefix) {
    const auto write = [&](const char* suffix, auto exporter) {
      const std::string path = *options.csv_prefix + suffix;
      std::ofstream out(path);
      exporter(map, *scenario, out);
      std::cout << "wrote " << path << "\n";
    };
    write("_activity.csv", core::export_activity_csv);
    write("_servers.csv", core::export_servers_csv);
    write("_links.csv", core::export_recommended_links_csv);
  }
  if (options.metrics_path) {
    // Deterministic section only by default: that artifact is byte-identical
    // for every --threads value (tools/check_metrics.sh gates on it).
    // --metrics-full opts into the wall-clock section (stage timings, RSS,
    // imbalance, quantiles) for `itm obs report`; never diff that one.
    std::ofstream out(*options.metrics_path);
    registry.write_json(out,
                        options.metrics_full
                            ? obs::MetricsRegistry::Export::kAll
                            : obs::MetricsRegistry::Export::kDeterministicOnly);
    std::cout << "wrote " << *options.metrics_path << "\n";
  }
  if (options.trace_path) {
    std::ofstream out(*options.trace_path);
    trace.write_chrome_trace(out);
    std::cout << "wrote " << *options.trace_path
              << " (open in https://ui.perfetto.dev)\n";
  }
  if (options.events_path) {
    std::cout << "wrote " << *options.events_path << " (event journal)\n";
  }
  return 0;
}

int cmd_outage(const CliOptions& options) {
  if (options.positional.empty()) {
    std::cerr << "usage: itm outage <as-name>\n";
    return kExitUsage;
  }
  auto scenario = core::Scenario::generate(options.scenario);
  const auto failed = find_as(*scenario, options.positional[0]);
  if (!failed) {
    std::cerr << "unknown AS '" << options.positional[0] << "'\n";
    return kExitRuntime;
  }
  if (scenario->topo().graph.info(*failed).type ==
      topology::AsType::kHypergiant) {
    std::cerr << "cannot simulate failing a hypergiant (its services would "
                 "have no serving sites)\n";
    return kExitRuntime;
  }
  core::MapBuilder builder(*scenario);
  std::cerr << "building the traffic map...\n";
  const auto map = builder.build(options.build);
  const auto estimate = map.outage_impact(*failed, scenario->topo().addresses);
  const auto truth = core::simulate_as_failure(*scenario, *failed);

  core::Table table({"metric", "map estimate", "ground truth"});
  table.row("activity/traffic share affected",
            core::pct(estimate.activity_share),
            core::pct(truth.client_bytes_lost + truth.service_bytes_lost));
  table.row("client /24s inside", estimate.client_prefixes, "-");
  table.row("CDN servers inside", estimate.servers_inside, "-");
  table.row("link load shifted", "-", core::pct(truth.link_load_shifted));
  table.print();
  const auto top = truth.top_gaining_links(scenario->topo().graph, 5);
  if (!top.empty()) {
    std::cout << "links absorbing the shift:\n";
    for (const auto& shift : top) {
      std::cout << "  " << scenario->topo().graph.info(shift.a).name
                << " -- " << scenario->topo().graph.info(shift.b).name
                << "  +" << core::num(shift.delta_bytes / 1e9, 1) << " GB\n";
    }
  }
  return 0;
}

int cmd_path(const CliOptions& options) {
  if (options.positional.size() < 2) {
    std::cerr << "usage: itm path <src-as> <dst-as>\n";
    return kExitUsage;
  }
  auto scenario = core::Scenario::generate(options.scenario);
  const auto src = find_as(*scenario, options.positional[0]);
  const auto dst = find_as(*scenario, options.positional[1]);
  if (!src || !dst) {
    std::cerr << "unknown AS name\n";
    return kExitRuntime;
  }
  const routing::Bgp bgp(scenario->topo().graph);
  const auto table = bgp.routes_to(*dst);
  if (!table.at(*src).reachable()) {
    std::cout << "no route\n";
    return 0;
  }
  std::cout << "AS path:";
  for (const Asn hop : table.path_from(*src)) {
    std::cout << " " << scenario->topo().graph.info(hop).name;
  }
  std::cout << "\n\ntraceroute:\n";
  const scan::Traceroute tracer(scenario->topo(), scenario->routers());
  const auto dst_addr =
      scenario->topo().addresses.of(*dst).infra_slash24.address_at(1);
  core::Table hops({"hop", "AS", "interface", "rtt ms"});
  std::size_t n = 1;
  for (const auto& hop : tracer.trace(*src, dst_addr)) {
    hops.row(n++, scenario->topo().graph.info(hop.asn).name,
             hop.interface.to_string(), core::num(hop.rtt_ms, 1));
  }
  hops.print();
  return 0;
}

int cmd_top(const CliOptions& options) {
  auto scenario = core::Scenario::generate(options.scenario);
  core::Table services({"rank", "service", "host", "mechanism", "share"});
  const auto ranked = scenario->catalog().by_popularity();
  for (std::size_t i = 0; i < 15 && i < ranked.size(); ++i) {
    const auto& svc = scenario->catalog().service(ranked[i]);
    const std::string host =
        svc.hypergiant
            ? scenario->deployment().hypergiant(*svc.hypergiant).name
            : scenario->topo().graph.info(svc.origin_as).name;
    services.row(i + 1, svc.hostname, host, cdn::to_string(svc.redirection),
                 core::pct(scenario->matrix().service_bytes(svc.id) /
                           scenario->matrix().total_bytes()));
  }
  services.print();
  return 0;
}

int cmd_rel_export(const CliOptions& options) {
  if (options.positional.empty()) {
    std::cerr << "usage: itm rel-export <file>\n";
    return kExitUsage;
  }
  auto scenario = core::Scenario::generate(options.scenario);
  std::ofstream out(options.positional[0]);
  topology::write_as_rel(scenario->topo().graph, out);
  std::cout << "wrote " << scenario->topo().graph.links().size()
            << " links to " << options.positional[0] << "\n";
  return 0;
}

int cmd_rel_path(const CliOptions& options) {
  if (options.positional.size() < 3) {
    std::cerr << "usage: itm rel-path <file> <asn-a> <asn-b>\n";
    return kExitUsage;
  }
  std::ifstream in(options.positional[0]);
  if (!in) {
    std::cerr << "cannot open " << options.positional[0] << "\n";
    return kExitRuntime;
  }
  topology::AsGraph graph;
  if (const auto error = topology::read_as_rel(in, graph)) {
    std::cerr << options.positional[0] << ":" << error->line << ": "
              << error->message << "\n";
    return kExitRuntime;
  }
  const auto resolve = [&](const std::string& asn) -> std::optional<Asn> {
    for (const auto& as : graph.ases()) {
      if (as.name == "AS" + asn || as.name == asn) return as.asn;
    }
    return std::nullopt;
  };
  const auto src = resolve(options.positional[1]);
  const auto dst = resolve(options.positional[2]);
  if (!src || !dst) {
    std::cerr << "ASN not present in the file\n";
    return kExitRuntime;
  }
  std::cout << "loaded " << graph.size() << " ASes, "
            << graph.links().size() << " links\n";
  const routing::Bgp bgp(graph);
  const auto table = bgp.routes_to(*dst);
  if (!table.at(*src).reachable()) {
    std::cout << "no valley-free route\n";
    return 0;
  }
  std::cout << "best path:";
  for (const Asn hop : table.path_from(*src)) {
    std::cout << " " << graph.info(hop).name;
  }
  std::cout << " (" << routing::to_string(table.at(*src).source)
            << "-learned, " << table.at(*src).hops << " hops)\n";
  return 0;
}

int cmd_snapshot(const CliOptions& options) {
  if (!options.out_path) {
    std::cerr << "usage: itm snapshot --out FILE [--seed N] [--scale S] "
                 "[--threads N]\n";
    return kExitUsage;
  }
  obs::MetricsRegistry registry;
  const obs::ScopedMetrics metrics_scope(registry);
  const RunInstrumentation instrumentation(options);

  // Stage 0 of the run: a SIGTERM during generation must still leave a
  // journal naming the stage in flight, exactly like the build stages.
  auto scenario = [&options] {
    const obs::StageScope stage("map.generate", 0, 5);
    return core::Scenario::generate(options.scenario);
  }();
  core::MapBuilder builder(*scenario);
  std::cerr << "building the traffic map...\n";
  const auto map = builder.build(options.build);

  std::ostringstream bytes;
  serve::write_snapshot(map, *scenario, bytes);
  const std::string blob = bytes.str();
  // Self-check: the bytes we are about to publish must load cleanly.
  std::string error;
  if (!serve::borrow_snapshot(blob, &error)) {
    std::cerr << "internal error: snapshot failed validation: " << error
              << "\n";
    return kExitRuntime;
  }
  std::ofstream out(*options.out_path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot open " << *options.out_path << "\n";
    return kExitRuntime;
  }
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.close();
  if (!out) {
    std::cerr << "failed writing " << *options.out_path << "\n";
    return kExitRuntime;
  }
  std::cout << "wrote " << *options.out_path << " (" << blob.size()
            << " bytes, " << map.client_prefixes.size() << " prefixes, "
            << map.tls.endpoints.size() << " endpoints, "
            << map.user_mapping.size() << " services)\n";
  if (options.metrics_path) {
    std::ofstream metrics_out(*options.metrics_path);
    registry.write_json(metrics_out,
                        options.metrics_full
                            ? obs::MetricsRegistry::Export::kAll
                            : obs::MetricsRegistry::Export::kDeterministicOnly);
    std::cout << "wrote " << *options.metrics_path << "\n";
  }
  return 0;
}

// `itm serve` is `itm served` over a file: the queries file becomes the
// session's input and stdout its output, so both commands answer through
// the one session loop of serve/server.h.
int cmd_served(const CliOptions& options, bool from_file) {
  // --queries belongs to `itm serve`, --listen to `itm served`.
  if (!options.snapshot_path || options.queries_path.has_value() != from_file ||
      (options.listen_path && (from_file || options.stdio))) {
    std::cerr << (from_file
                      ? "usage: itm serve --snapshot FILE --queries FILE "
                        "[--threads N] [--cache-size N]\n"
                      : "usage: itm served --snapshot FILE [--listen SOCK | "
                        "--stdio] [--threads N] [--cache-size N]\n");
    return kExitUsage;
  }
  obs::MetricsRegistry registry;
  const obs::ScopedMetrics metrics_scope(registry);
  // Journal + crash flush first (SIGSEGV/SIGABRT keep the flush-and-die
  // handlers), then the graceful SIGTERM/SIGINT handlers on top: a signal
  // sets one flag, the session loop drains, and the destructor of
  // RunInstrumentation flushes the journal on the way to exit 0.
  const RunInstrumentation instrumentation(options);
  serve::Server::install_signal_handlers();

  net::Executor executor(options.threads);
  serve::ServedOptions served_options;
  served_options.snapshot_path = *options.snapshot_path;
  served_options.listen_path = options.listen_path.value_or("");
  served_options.cache_capacity = options.cache_size;
  serve::Server server(served_options, executor);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "error: cannot serve snapshot: " << error << "\n";
    return kExitRuntime;
  }
  if (options.queries_path) {
    const int fd = ::open(options.queries_path->c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 || ::dup2(fd, STDIN_FILENO) < 0) {
      std::cerr << "cannot open " << *options.queries_path << "\n";
      return kExitRuntime;
    }
    ::close(fd);
  }
  std::cerr << (from_file ? "itm serve" : "itm served")
            << ": epoch 0 loaded from " << *options.snapshot_path
            << (served_options.listen_path.empty()
                    ? ", serving " + options.queries_path.value_or("stdio")
                    : ", listening on " + served_options.listen_path)
            << "\n";
  const int code = server.run();
  if (options.metrics_path) {
    std::ofstream metrics_out(*options.metrics_path);
    registry.write_json(metrics_out,
                        options.metrics_full
                            ? obs::MetricsRegistry::Export::kAll
                            : obs::MetricsRegistry::Export::kDeterministicOnly);
    // stderr: stdout carries the session's replies.
    std::cerr << "wrote " << *options.metrics_path << "\n";
  }
  return code;
}

int cmd_snapshot_diff(const CliOptions& options) {
  if (options.positional.size() < 2 || !options.out_path) {
    std::cerr << "usage: itm snapshot-diff <old.itms> <new.itms> --out FILE\n";
    return kExitUsage;
  }
  const auto read_file = [](const std::string& path) -> std::optional<std::string> {
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    if (is.bad()) return std::nullopt;
    return std::move(buffer).str();
  };
  const auto base = read_file(options.positional[0]);
  const auto target = read_file(options.positional[1]);
  if (!base || !target) {
    std::cerr << "cannot read "
              << options.positional[!base ? 0 : 1] << "\n";
    return kExitRuntime;
  }
  std::string error;
  const auto delta = serve::diff_snapshots(*base, *target, &error);
  if (!delta) {
    std::cerr << "error: " << error << "\n";
    return kExitRuntime;
  }
  std::ofstream out(*options.out_path, std::ios::binary);
  out.write(delta->data(), static_cast<std::streamsize>(delta->size()));
  out.close();
  if (!out) {
    std::cerr << "failed writing " << *options.out_path << "\n";
    return kExitRuntime;
  }
  const auto info = serve::read_delta_info(*delta, &error);
  std::cout << "wrote " << *options.out_path << " (" << delta->size()
            << " bytes, " << (info ? info->ops : 0) << " record ops, "
            << (100.0 * static_cast<double>(delta->size()) /
                static_cast<double>(target->size()))
            << "% of the full snapshot)\n";
  return 0;
}

int cmd_snapshot_apply(const CliOptions& options) {
  if (options.positional.size() < 2 || !options.out_path) {
    std::cerr << "usage: itm snapshot-apply <base.itms> <delta.itmsd> "
                 "--out FILE\n";
    return kExitUsage;
  }
  const auto read_file = [](const std::string& path) -> std::optional<std::string> {
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    if (is.bad()) return std::nullopt;
    return std::move(buffer).str();
  };
  const auto base = read_file(options.positional[0]);
  const auto delta = read_file(options.positional[1]);
  if (!base || !delta) {
    std::cerr << "cannot read "
              << options.positional[!base ? 0 : 1] << "\n";
    return kExitRuntime;
  }
  std::string error;
  const auto target = serve::apply_delta(*base, *delta, &error);
  if (!target) {
    std::cerr << "error: " << error << "\n";
    return kExitRuntime;
  }
  std::ofstream out(*options.out_path, std::ios::binary);
  out.write(target->data(), static_cast<std::streamsize>(target->size()));
  out.close();
  if (!out) {
    std::cerr << "failed writing " << *options.out_path << "\n";
    return kExitRuntime;
  }
  std::cout << "wrote " << *options.out_path << " (" << target->size()
            << " bytes, checksum "
            << serve::snapshot_checksum(*target) << ")\n";
  return 0;
}

int cmd_obs(const CliOptions& options) {
  if (options.positional.size() < 2 ||
      (options.positional[0] != "report" && options.positional[0] != "trace")) {
    std::cerr << "usage: itm obs report <metrics.json> "
                 "[--baseline <metrics.json>] [--perf-tolerance X]\n"
                 "       itm obs trace <trace.json>\n";
    return kExitUsage;
  }
  if (options.positional[0] == "trace") {
    return obs::run_obs_trace(options.positional[1], std::cout, std::cerr);
  }
  obs::ObsReportOptions report_options;
  report_options.metrics_path = options.positional[1];
  report_options.baseline_path = options.baseline_path.value_or("");
  report_options.wall_tolerance = options.perf_tolerance;
  return obs::run_obs_report(report_options, std::cout, std::cerr);
}

// Build information baked in by tools/CMakeLists.txt; the fallbacks keep
// non-CMake builds (e.g. IDE single-file checks) compiling.
#ifndef ITM_COMPILER_INFO
#define ITM_COMPILER_INFO "unknown"
#endif
#ifndef ITM_BUILD_TYPE
#define ITM_BUILD_TYPE "unknown"
#endif
#ifndef ITM_SANITIZE_INFO
#define ITM_SANITIZE_INFO ""
#endif

int cmd_version() {
  std::cout << "itm — Internet traffic map toolkit\n"
            << "compiler: " << ITM_COMPILER_INFO << "\n"
            << "build type: " << ITM_BUILD_TYPE << "\n"
            << "sanitizer: "
            << (std::strlen(ITM_SANITIZE_INFO) > 0 ? ITM_SANITIZE_INFO
                                                   : "none")
            << "\n"
            << "c++ standard: " << __cplusplus << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: itm "
                 "<generate|map|outage|path|top|rel-export|rel-path|"
                 "snapshot|serve|served|snapshot-diff|snapshot-apply|"
                 "obs|version> [options]\n";
    return kExitUsage;
  }
  const std::string command = argv[1];
  const CliOptions options = parse(argc, argv, 2);
  if (command == "generate") return cmd_generate(options);
  if (command == "map") return cmd_map(options);
  if (command == "outage") return cmd_outage(options);
  if (command == "path") return cmd_path(options);
  if (command == "top") return cmd_top(options);
  if (command == "rel-export") return cmd_rel_export(options);
  if (command == "rel-path") return cmd_rel_path(options);
  if (command == "snapshot") return cmd_snapshot(options);
  if (command == "serve") return cmd_served(options, true);
  if (command == "served") return cmd_served(options, false);
  if (command == "snapshot-diff") return cmd_snapshot_diff(options);
  if (command == "snapshot-apply") return cmd_snapshot_apply(options);
  if (command == "obs") return cmd_obs(options);
  if (command == "version") return cmd_version();
  std::cerr << "unknown command '" << command << "'\n";
  return kExitUnknownCommand;
}
