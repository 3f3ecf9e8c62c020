// The serve side of a run: `itm served` over its AF_UNIX socket, driven by
// one closed-loop client thread on one connection, with every reply checked
// against an in-process reference QueryEngine per delta-chain epoch.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"
#include "spans.h"

namespace perfbench {

struct ServeSettings {
  // false: uniform point lookups, then idle passes over the delta chain
  // (update_ms without load). true: mixed_stream's verb mix with an
  // apply-delta after every 2,000 queries, the pipeline kept full.
  bool mixed = false;
  double seconds = 10.0;       // timed phase
  double warm_s = 1.0;         // untimed warm-up on the same connection
  std::size_t launches = 9;    // server launches; setup is their median
};

struct ServeInputs {
  std::string itm;            // the `itm` binary
  std::string work_dir;       // scratch files (relative to the cwd)
  std::string snapshot_path;  // the served `.itms`
  std::uint64_t seed = 0;
};

// Runs the serve side and records the serve metrics: setup (launch to first
// reply, median), build (in-process epoch build, median), qps, p50/p99,
// update_ms and the server's VmHWM as end-to-end metrics. `serve_setup`
// selects whether setup_s/build_s/peak_rss_mb come from the server (serve
// workloads) or are left to the map side (map workloads). With `spans`
// (traced runs), also records the server and serving-layer per-layer
// metrics, with a span per in-process serving call group.
void run_serve(const ServeInputs& inputs, const ServeSettings& settings,
               bool serve_setup, SpanRecorder* spans, Report& report);

}  // namespace perfbench
