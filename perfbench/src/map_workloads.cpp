#include "map_workloads.h"

#include <malloc.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/scale.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "proc.h"
#include "routing/bgp.h"
#include "scan/cache_prober.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "stats.h"

namespace perfbench {

namespace itm_core = itm::core;

namespace {

// Bytes the allocator has handed out and not taken back. Unlike RSS, the
// delta across a call is its retained allocation even when the call reuses
// pages that earlier generations freed.
double heap_mb() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// FNV-1a over the matrix's per-prefix bytes (bit patterns) and total.
std::uint64_t matrix_hash(const itm::traffic::TrafficMatrix& matrix) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const double v : matrix.prefix_bytes()) mix(v);
  mix(matrix.total_bytes());
  return h;
}

// The first world seed, in a sequence derived from `seed`, whose world has
// between `lo` and `hi` user /24s. Predicts the count from the first steps of
// Scenario::generate (topology from fork 1, users from fork 4), which cost
// milliseconds at the default size.
std::uint64_t sized_world_seed(itm_core::ScenarioConfig config, std::uint64_t seed,
                               std::size_t lo, std::size_t hi) {
  itm::Rng candidates = itm::Rng(seed).split("world-seed");
  for (int attempt = 0; attempt < 10000; ++attempt) {
    config.seed = candidates.next_u64();
    itm::Rng root(config.seed);
    itm::Rng topo_rng = root.fork(1);
    (void)root.fork(2);
    (void)root.fork(3);
    itm::Rng user_rng = root.fork(4);
    const auto topo = itm::topology::generate_topology(config.topology, topo_rng);
    const std::size_t users = itm::traffic::UserBase::build(topo, config.users, user_rng).size();
    if (users >= lo && users <= hi) return config.seed;
  }
  throw std::runtime_error("no world of the requested size");
}

}  // namespace

MapShape map_shape(const std::string& name, std::uint64_t seed,
                   std::size_t threads) {
  MapShape shape;
  if (name == "map-probe") {
    // Default worlds range from 16.5k to 21.3k user /24s across seeds (13M
    // to 19M workload events): enough to move build time by +-15% and to
    // put the event vector on either side of its 2^24-element capacity
    // doubling (peak RSS 270 vs 525 MB). A fixed size band gives every seed
    // the same work, past the doubling.
    shape.config = itm_core::default_config(
        sized_world_seed(itm_core::default_config(), seed, 20000, 20400));
  } else if (name == "map-routing") {
    shape.config = itm_core::tier_config(itm_core::ScaleTier::kMedium);
    shape.config.seed = seed;
    shape.config.topology.addressing.user_24s_per_access_as = 1.0;
    shape.config.services.num_hypergiant_services = 20;
    shape.config.services.num_longtail_services = 40;
    shape.options = itm_core::tier_build_options(itm_core::ScaleTier::kMedium);
    shape.options.routing_destination_stride = 4;
    shape.options.probe_rounds = 1;
    // A quarter of the medium tier's simulated day, so route collection,
    // not the workload driver, is the largest build stage.
    shape.options.workload.queries_per_activity = 0.5;
    shape.options.workload.sessions_per_user = 0.125;
  } else if (name == "tiny") {
    shape.config = itm_core::tiny_config(seed);
  } else {
    throw std::invalid_argument("unknown map shape " + name);
  }
  shape.options.threads = threads;
  return shape;
}

MapRun run_map(const MapShape& shape, std::size_t generations, Report& report) {
  MapRun run;
  std::unique_ptr<itm_core::Scenario> scenario;
  for (std::size_t g = 0; g < generations; ++g) {
    scenario.reset();
    const itm::obs::Stopwatch watch;
    scenario = itm_core::Scenario::generate(shape.config);
    run.generate_s.push_back(watch.elapsed_s());
    const double total = scenario->matrix().total_bytes();
    const std::uint64_t hash = matrix_hash(scenario->matrix());
    if (g == 0) {
      run.matrix_total = total;
      run.matrix_hash = hash;
    }
    if (total == run.matrix_total && hash == run.matrix_hash && total > 0) {
      report.op(true);
    } else {
      report.fail("generation " + std::to_string(g) + " produced a different matrix");
    }
  }
  run.setup_s = median(run.generate_s);
  run.ases = scenario->topo().graph.size();
  run.user_prefixes = scenario->users().size();

  itm_core::MapBuilder builder(*scenario);
  const double cpu_before = self_cpu_s();
  const itm::obs::Stopwatch watch;
  const itm_core::TrafficMap map = builder.build(shape.options);
  run.build_s = watch.elapsed_s();
  run.build_cpu_s = self_cpu_s() - cpu_before;
  run.timings = builder.last_timings();
  run.detected = builder.last_prober()->detected_prefixes();
  run.probes_sent = builder.last_prober()->total_probes();
  run.shard_imbalance =
      static_cast<double>(itm::obs::metrics()
                              .gauge_value("map.routing.imbalance_x1000")
                              .value_or(1000)) /
      1000.0;
  if (run.detected.empty() || map.client_prefixes.size() != run.detected.size()) {
    report.fail("the build detected no client prefixes");
  } else {
    report.op(true);
  }

  std::ostringstream os;
  itm::serve::write_snapshot(map, *scenario, os);
  run.snapshot = std::move(os).str();
  std::string error;
  const auto reread = itm::serve::read_snapshot(run.snapshot, &error);
  bool identical = false;
  if (reread && itm::serve::borrow_snapshot(run.snapshot, &error)) {
    std::ostringstream again;
    itm::serve::write_snapshot(*reread, again);
    identical = again.str() == run.snapshot;
    if (!identical) error = "re-written snapshot differs";
  }
  if (identical) {
    run.snapshot_checksum = itm::serve::snapshot_checksum(run.snapshot);
    report.op(true);
  } else {
    report.fail("snapshot check: " + error);
  }
  return run;
}

void trace_map_layers(const MapShape& shape, const MapRun& run,
                      Report& report, SpanRecorder& spans) {
  using Scope = SpanRecorder::Scope;
  const auto& config = shape.config;
  const auto& options = shape.options;

  // ---- Scenario::generate's sub-calls, in its order, with its forks.
  double matrix_heap_mb = 0.0;
  {
    const Scope root(spans, "core.generate");
    itm::Rng rng(config.seed);
    itm::Rng topo_rng = rng.fork(1);
    std::unique_ptr<itm::topology::Topology> topo;
    {
      const Scope s(spans, "topology.generate");
      topo = std::make_unique<itm::topology::Topology>(
          itm::topology::generate_topology(config.topology, topo_rng));
    }
    itm::Rng deploy_rng = rng.fork(2);
    std::unique_ptr<itm::cdn::Deployment> deployment;
    {
      const Scope s(spans, "cdn.deployment");
      deployment = std::make_unique<itm::cdn::Deployment>(
          itm::cdn::Deployment::build(*topo, config.deployment, deploy_rng));
    }
    itm::Rng service_rng = rng.fork(3);
    std::unique_ptr<itm::cdn::ServiceCatalog> catalog;
    {
      const Scope s(spans, "cdn.catalog");
      catalog = std::make_unique<itm::cdn::ServiceCatalog>(itm::cdn::ServiceCatalog::generate(
          *topo, *deployment, config.services, service_rng));
    }
    std::unique_ptr<itm::cdn::ClientMapper> mapper;
    {
      const Scope s(spans, "cdn.mapper");
      mapper = std::make_unique<itm::cdn::ClientMapper>(*topo, *deployment, config.mapping);
    }
    itm::Rng user_rng = rng.fork(4);
    std::unique_ptr<itm::traffic::UserBase> users;
    {
      const Scope s(spans, "traffic.users");
      users = std::make_unique<itm::traffic::UserBase>(
          itm::traffic::UserBase::build(*topo, config.users, user_rng));
    }
    itm::Rng dns_rng = rng.fork(5);
    std::unique_ptr<itm::dns::DnsSystem> dns;
    {
      const Scope s(spans, "dns.system");
      dns = std::make_unique<itm::dns::DnsSystem>(*topo, *users, *catalog, *mapper,
                                                  config.dns, dns_rng);
    }
    std::vector<itm::CityId> pop_cities;
    for (const auto& pop : dns->public_pops()) pop_cities.push_back(pop.city);
    std::unique_ptr<itm::traffic::TrafficMatrix> matrix;
    {
      const Scope s(spans, "traffic.matrix");
      const double before = heap_mb();
      matrix = std::make_unique<itm::traffic::TrafficMatrix>(itm::traffic::TrafficMatrix::build(
          *topo, *users, *catalog, *mapper, pop_cities, config.demand));
      matrix_heap_mb = heap_mb() - before;
    }
    if (matrix->total_bytes() != run.matrix_total || matrix_hash(*matrix) != run.matrix_hash) {
      report.fail("replica generation: traffic matrix differs from Scenario::generate");
    } else {
      report.op(true);
    }
    itm::Rng router_rng = rng.fork(6);
    {
      const Scope s(spans, "scan.routers");
      const auto routers =
          itm::scan::RouterFleet::build(*topo, *matrix, config.routers, router_rng);
    }
    itm::Rng apnic_rng = rng.fork(7);
    {
      const Scope s(spans, "apnic.estimates");
      const auto apnic =
          itm::apnic::ApnicEstimates::build(*topo, *users, config.apnic, apnic_rng);
    }
    itm::Rng pdb_rng = rng.fork(8);
    {
      const Scope s(spans, "topology.peeringdb");
      const auto pdb = itm::topology::PeeringDb::build(topo->graph, config.peeringdb, pdb_rng);
    }
    {
      const Scope s(spans, "cdn.tls_inventory");
      const auto tls = itm::cdn::TlsInventory::build(*topo, *deployment, *catalog);
    }
  }

  // ---- The probe stage's calls, on a fresh world (Workload mutates DNS).
  auto scenario = itm_core::Scenario::generate(config);
  double workload_heap_mb = 0.0;
  std::size_t events = 0;
  itm::dns::DnsSystem::Stats dns_before = scenario->dns().stats();
  std::vector<itm::Ipv4Prefix> detected;
  std::uint64_t probes = 0;
  {
    itm::net::Executor executor(options.threads);
    const Scope root(spans, "map.workload_probe");
    std::unique_ptr<itm_core::Workload> workload;
    {
      const Scope s(spans, "core.workload_build");
      const double before = heap_mb();
      workload = std::make_unique<itm_core::Workload>(*scenario, options.workload,
                                                     config.seed ^ 0x17f);
      workload_heap_mb = heap_mb() - before;
    }
    events = workload->total_events();
    itm::scan::CacheProber prober(scenario->dns(), scenario->catalog(), options.probing,
                                  &scenario->topo().addresses, &executor);
    const auto routable = scenario->topo().addresses.routable_slash24s();
    for (std::size_t round = 0; round < options.probe_rounds; ++round) {
      const itm::SimTime at = (2 * round + 1) * options.workload.duration /
                              (2 * options.probe_rounds);
      {
        const Scope s(spans, "dns.drive");
        workload->advance_to(at);
      }
      const Scope s(spans, "scan.probe_sweep");
      prober.sweep(routable, at);
    }
    {
      const Scope s(spans, "dns.drive");
      workload->finish();
    }
    detected = prober.detected_prefixes();
    probes = prober.total_probes();
  }
  if (detected != run.detected || probes != run.probes_sent) {
    report.fail("replica probe stage: detected client prefixes differ from MapBuilder::build");
  } else {
    report.op(true);
  }
  const auto& dns_after = scenario->dns().stats();
  const auto hits = (dns_after.public_hits - dns_before.public_hits) +
                    (dns_after.isp_hits - dns_before.isp_hits);
  const auto lookups = hits + (dns_after.public_misses - dns_before.public_misses) +
                       (dns_after.isp_misses - dns_before.isp_misses);

  // ---- Route tables toward a seeded destination sample.
  std::vector<double> route_ms;
  {
    const auto& graph = scenario->topo().graph;
    const itm::routing::Bgp bgp(graph);
    itm::Rng rng = itm::Rng(config.seed).split("route-sample");
    const Scope root(spans, "routing.route_tables");
    for (int i = 0; i < 16; ++i) {
      const itm::Asn dest(static_cast<std::uint32_t>(rng.next_below(graph.size())));
      const Scope s(spans, "routing.route_table");
      const itm::obs::Stopwatch watch;
      const auto table = bgp.routes_to(dest);
      route_ms.push_back(watch.elapsed_s() * 1e3);
    }
  }

  const auto self = spans.self_s();
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double other = self_of("cdn.catalog") + self_of("cdn.mapper") +
                       self_of("dns.system") + self_of("scan.routers") +
                       self_of("apnic.estimates") + self_of("topology.peeringdb") +
                       self_of("cdn.tls_inventory");
  report.layer("topology.generate_s", self_of("topology.generate"), "s");
  report.layer("cdn.deployment_s", self_of("cdn.deployment"), "s");
  report.layer("traffic.users_s", self_of("traffic.users"), "s");
  report.layer("traffic.matrix_s", self_of("traffic.matrix"), "s");
  report.layer("traffic.matrix_heap_mb", matrix_heap_mb, "MB");
  report.layer("core.generate_other_s", other, "s");
  double route_total = 0;
  for (const double ms : route_ms) route_total += ms;
  report.layer("routing.route_table_ms", route_total / static_cast<double>(route_ms.size()), "ms");
  report.layer("core.workload_build_s", self_of("core.workload_build"), "s");
  report.layer("core.workload_events", static_cast<double>(events), "count");
  report.layer("core.workload_heap_mb", workload_heap_mb, "MB");
  report.layer("dns.drive_s", self_of("dns.drive"), "s");
  report.layer("dns.queries",
               static_cast<double>(dns_after.queries - dns_before.queries), "count");
  report.layer("dns.cache_hit_ratio",
               lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
               "ratio");
  report.layer("scan.probe_sweep_s", self_of("scan.probe_sweep"), "s");
  report.layer("scan.probes_sent", static_cast<double>(probes), "count");
  report.layer("scan.probe_yield",
               probes == 0 ? 0.0
                           : static_cast<double>(detected.size()) * 1000.0 /
                                 static_cast<double>(probes),
               "per_1k");
  report.layer("scan.tls_s", run.timings.tls_scan_s, "s");
  report.layer("scan.ecs_s", run.timings.ecs_map_s, "s");
  report.layer("routing.collect_s", run.timings.routing_s, "s");
  report.layer("inference.s", run.timings.inference_s, "s");
  report.layer("net.shard_imbalance", run.shard_imbalance, "ratio");
  report.layer("proc.cpu_s", run.build_cpu_s, "s");

  // Coverage: the share of the untraced setup + build the spans account
  // for (the stages the replica does not re-drive come from the builder's
  // own stage timings). Overhead: replica minus untraced, same sections.
  const double generate_traced = spans.total_s("core.generate");
  const double probe_traced = spans.total_s("map.workload_probe");
  const double covered = (generate_traced - self_of("core.generate")) +
                         (probe_traced - self_of("map.workload_probe")) +
                         run.timings.tls_scan_s + run.timings.ecs_map_s +
                         run.timings.routing_s + run.timings.inference_s;
  report.layer("trace.coverage", covered / (run.setup_s + run.build_s), "ratio");
  const double untraced = run.setup_s + run.timings.workload_probe_s;
  report.layer("trace.overhead_pct",
               100.0 * (generate_traced + probe_traced - untraced) / untraced, "%");
  report.info("map.trace_generate_s", generate_traced);
  report.info("map.trace_workload_probe_s", probe_traced);
}

}  // namespace perfbench
