// itm_perfbench: one benchmark run of one workload.
//
//   itm_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --itm PATH --work-dir DIR [--snapshot PATH]
//                 [--itm-version TEXT]
//   itm_perfbench --make-snapshot OUT
//
// Workloads: map-probe, map-routing (generate + build through the library,
// then the serve-lookup load), serve-lookup, serve-update (`itm served`
// on the medium-tier snapshot given by --snapshot). Untraced runs
// print the end-to-end metrics; traced runs (--trace 1) re-drive each layer
// under spans and print the per-layer metrics. The last stdout line is the
// result object; a run that cannot execute exits 1 without one.
//
// --make-snapshot builds the medium-tier map with the tier's pinned seed and
// build options and writes its `.itms` snapshot (the serve workloads' input).
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "client.h"
#include "core/scale.h"
#include "map_workloads.h"
#include "obs/resource.h"
#include "proc.h"
#include "serve/snapshot_writer.h"
#include "serve_workloads.h"
#include "spans.h"

namespace {

using perfbench::Report;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string itm;
  std::string work_dir = ".";
  std::string snapshot;
  std::string itm_version;
  std::string make_snapshot;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--itm") args.itm = value;
    else if (flag == "--work-dir") args.work_dir = value;
    else if (flag == "--snapshot") args.snapshot = value;
    else if (flag == "--itm-version") args.itm_version = value;
    else if (flag == "--make-snapshot") args.make_snapshot = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return args;
}

std::size_t nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

// Worker threads for map builds: the machine's cores, capped at 4 so the
// work per thread stays comparable across machines.
std::size_t build_threads() { return std::min<std::size_t>(4, nproc()); }

int make_snapshot(const std::string& out) {
  using namespace itm::core;
  const auto scenario = Scenario::generate(tier_config(ScaleTier::kMedium));
  MapBuildOptions options = tier_build_options(ScaleTier::kMedium);
  options.threads = build_threads();
  MapBuilder builder(*scenario);
  const TrafficMap map = builder.build(options);
  const std::string tmp = out + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    itm::serve::write_snapshot(map, *scenario, os);
    if (!os) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), out.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp);
  }
  std::cerr << "wrote " << out << "\n";
  return 0;
}

int run(const Args& args) {
  Report report;
  perfbench::SpanRecorder spans(args.seed ^ itm::obs::unix_millis());
  perfbench::SpanRecorder* traced = args.trace ? &spans : nullptr;
  const bool map_workload = args.workload == "map-probe" || args.workload == "map-routing";
  const bool serve_workload = args.workload == "serve-lookup" || args.workload == "serve-update";
  if (!map_workload && !serve_workload) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (args.itm.empty()) throw std::invalid_argument("--itm is required");

  report.info("workload", args.workload);
  report.info("seed", static_cast<double>(args.seed));
  report.info("seconds", args.seconds);
  report.info("trace", args.trace ? 1.0 : 0.0);
  report.info("nproc", static_cast<double>(nproc()));
  report.info("itm_version", args.itm_version);
  report.info("trace.run_id", static_cast<double>(spans.run_id()));

  perfbench::ServeInputs inputs;
  inputs.itm = args.itm;
  inputs.work_dir = args.work_dir;
  inputs.seed = args.seed;
  perfbench::ServeSettings settings;

  if (args.snapshot.empty()) throw std::invalid_argument("--snapshot is required");
  inputs.snapshot_path = args.snapshot;
  if (map_workload) {
    // Setup is the median of three generations.
    const auto shape = perfbench::map_shape(args.workload, args.seed, build_threads());
    const perfbench::MapRun run = perfbench::run_map(shape, 3, report);
    report.metric("setup_s", run.setup_s, "s");
    report.metric("build_s", run.build_s, "s");
    report.metric("peak_rss_mb",
                  static_cast<double>(itm::obs::peak_rss_bytes()) / (1024.0 * 1024.0), "MB");
    report.info("map.world_seed", std::to_string(shape.config.seed));
    report.info("map.ases", static_cast<double>(run.ases));
    report.info("map.user_prefixes", static_cast<double>(run.user_prefixes));
    report.info("map.build_threads", static_cast<double>(shape.options.threads));
    report.info("map.probe_rounds", static_cast<double>(shape.options.probe_rounds));
    report.info("map.routing_stride",
                static_cast<double>(shape.options.routing_destination_stride));
    report.info("map.generations", static_cast<double>(run.generate_s.size()));
    report.info("map.client_prefixes", static_cast<double>(run.detected.size()));
    report.info("map.snapshot_bytes", static_cast<double>(run.snapshot.size()));
    report.info("map.snapshot_checksum", perfbench::hex64(run.snapshot_checksum));
    if (traced) perfbench::trace_map_layers(shape, run, report, spans);
    // Every workload reports every metric, so the map workloads also run
    // the serve-lookup load after the build, with one server launch. It
    // serves the medium snapshot: the built map's own snapshot is small and
    // its size varies with the seed, which made its serve numbers swing
    // between runs.
    settings.seconds = args.seconds;
    settings.launches = 1;
    perfbench::run_serve(inputs, settings, false, traced, report);
  } else {
    settings.mixed = args.workload == "serve-update";
    settings.seconds = args.seconds;
    perfbench::run_serve(inputs, settings, true, traced, report);
    if (traced) {
      // The map layers, on the seed's tiny world: serve workloads build no
      // map, so these exist for completeness and carry no serve signal.
      const auto shape = perfbench::map_shape("tiny", args.seed, build_threads());
      const perfbench::MapRun run = perfbench::run_map(shape, 1, report);
      perfbench::trace_map_layers(shape, run, report, spans);
    }
  }

  if (traced) {
    const std::string path = args.work_dir + "/trace.json";
    std::ofstream os(path);
    spans.write_chrome_trace(os);
    report.info("trace.file", path);
    report.info("trace.spans", static_cast<double>(spans.spans().size()));
  }
  report.print(std::cout, args.trace);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (!args.make_snapshot.empty()) return make_snapshot(args.make_snapshot);
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "itm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
