// Shared scaffolding for the experiment benches: scenario construction from
// command-line seed/scale, and the standard "drive a day of workload while
// cache-probing" measurement loop several experiments share.
//
// Every bench binary runs standalone with no arguments (seed 42, default
// scale); pass `<seed> [tiny|default|large|medium|huge]` to vary. A
// malformed number or an unknown scale exits 2. Benches that emit a
// machine-readable record (substrate_scale, serve_load) fill a local
// obs::MetricsRegistry and write its JSON export, the schema that `itm obs
// report --baseline` diffs.
#pragma once

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/report.h"
#include "core/scale.h"
#include "core/scenario.h"
#include "core/traffic_map.h"
#include "core/workload.h"
#include "net/executor.h"
#include "net/parse.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "scan/cache_prober.h"
#include "scan/root_crawler.h"

namespace itm::bench {

// Wall-clock stopwatch for per-stage timing and speedup reporting, backed
// by the sanctioned obs::Stopwatch (bench timings are wall-clock by nature
// and never enter the byte-equivalence diff).
class WallTimer {
 public:
  WallTimer() = default;
  void reset() { watch_.reset(); }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(watch_.elapsed_ns()) * 1e-9;
  }

 private:
  obs::Stopwatch watch_;
};

// Prints "<stage>: serial 1.23 s, 4 threads 0.41 s (3.0x)" to stderr.
inline void report_speedup(const char* stage, double serial_s,
                           double parallel_s, std::size_t threads) {
  std::cerr << "[bench] " << stage << ": serial " << core::num(serial_s, 3)
            << " s, " << threads << " threads " << core::num(parallel_s, 3)
            << " s (" << core::num(parallel_s > 0 ? serial_s / parallel_s : 0,
                                   2)
            << "x)\n";
}

// Prints the per-stage wall times of a finished map build.
inline void report_stage_timings(const core::MapBuildTimings& t) {
  std::cerr << "[bench] stage wall time: probing "
            << core::num(t.workload_probe_s, 2) << " s, tls "
            << core::num(t.tls_scan_s, 2) << " s, ecs "
            << core::num(t.ecs_map_s, 2) << " s, routing "
            << core::num(t.routing_s, 2) << " s, inference "
            << core::num(t.inference_s, 2) << " s\n";
}

// Writes the current metrics registry (all sections, including wall-clock)
// to $ITM_BENCH_METRICS_DIR/<bench_name>.metrics.json; no-op when the env
// var is unset. Call once per bench run, after the measured work.
inline void dump_metrics_snapshot(const char* bench_name) {
  // itm-lint: allow(banned-nondet-sources) -- bench harness opt-in, not a stage
  const char* dir = std::getenv("ITM_BENCH_METRICS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path =
      std::string(dir) + "/" + bench_name + ".metrics.json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "[bench] cannot write metrics snapshot " << path << "\n";
    return;
  }
  obs::metrics().write_json(out, obs::MetricsRegistry::Export::kAll);
  std::cerr << "[bench] wrote metrics snapshot " << path << "\n";
}

// Positional argument `index` parsed strictly (parse_u64) as an integer no
// larger than `max`, or `fallback` when it is absent. A malformed or
// out-of-range value is bad usage: a diagnostic and exit 2, before any
// work starts.
inline std::uint64_t arg_u64(
    int argc, char** argv, int index, const char* name,
    std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (argc <= index) return fallback;
  const auto value = parse_u64(argv[index], max);
  if (!value) {
    std::cerr << "[bench] bad value '" << argv[index] << "' for " << name
              << " (expected an integer from 0 to " << max << ")\n";
    std::exit(2);
  }
  return *value;
}

inline core::ScenarioConfig config_from_args(int argc, char** argv) {
  const std::uint64_t seed = arg_u64(argc, argv, 1, "seed", 42);
  std::string scale = argc > 2 ? argv[2] : "default";
  if (scale == "tiny") return core::tiny_config(seed);
  if (scale == "large") return core::large_config(seed);
  if (scale == "medium" || scale == "huge") {
    // Pinned bench tiers carry their own seed: a tier names one exact
    // world, so BENCH records stay comparable across commits. A seed
    // argument is ignored here on purpose.
    const auto tier = *core::parse_scale_tier(scale);
    if (argc > 1 && seed != core::tier_seed(tier)) {
      std::cerr << "[bench] scale '" << scale << "' pins seed "
                << core::tier_seed(tier) << "; ignoring --seed " << seed
                << "\n";
    }
    return core::tier_config(tier);
  }
  if (scale != "default") {
    std::cerr << "[bench] unknown scale '" << scale
              << "' (expected tiny|default|large|medium|huge)\n";
    std::exit(2);
  }
  return core::default_config(seed);
}

// Peak resident set size of this process so far, in bytes (Linux
// ru_maxrss is in KiB). 0 when the kernel refuses the query.
inline std::size_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

inline std::unique_ptr<core::Scenario> make_scenario(int argc, char** argv) {
  const auto config = config_from_args(argc, argv);
  std::cerr << "[bench] generating scenario (seed " << config.seed << ")...\n";
  auto scenario = core::Scenario::generate(config);
  std::cerr << "[bench] " << scenario->topo().graph.size() << " ASes, "
            << scenario->users().size() << " user /24s, "
            << scenario->catalog().size() << " services\n";
  return scenario;
}

// A day of workload with interleaved cache-probing sweeps; returns the
// prober (with accumulated hits) and leaves root logs populated.
struct MeasurementDay {
  std::unique_ptr<scan::CacheProber> prober;
  scan::RootCrawlResult crawl;
};

inline MeasurementDay run_measurement_day(
    core::Scenario& scenario, std::size_t probe_rounds = 16,
    scan::CacheProbeConfig probe_config = {},
    core::WorkloadConfig workload_config = {},
    net::Executor* executor = nullptr) {
  core::Workload workload(scenario, workload_config,
                          scenario.config().seed ^ 0xda7);
  auto prober = std::make_unique<scan::CacheProber>(
      scenario.dns(), scenario.catalog(), probe_config, nullptr, executor);
  const auto routable = scenario.topo().addresses.routable_slash24s();
  for (std::size_t round = 0; round < probe_rounds; ++round) {
    const SimTime at =
        (2 * round + 1) * workload_config.duration / (2 * probe_rounds);
    workload.advance_to(at);
    prober->sweep(routable, at);
    std::cerr << "[bench] probe round " << (round + 1) << "/" << probe_rounds
              << "\r";
  }
  std::cerr << "\n";
  workload.finish();
  MeasurementDay day;
  day.prober = std::move(prober);
  day.crawl = scan::crawl_root_logs(scenario.dns(), scenario.topo().addresses);
  return day;
}

}  // namespace itm::bench
