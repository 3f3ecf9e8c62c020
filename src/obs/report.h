// Run-analysis reports over exported artifacts: the logic behind the
// `itm obs report` and `itm obs trace` CLI verbs.
//
// `itm obs report --baseline` is the repo's one record differ. It reads the
// metrics registry's JSON export, which is the schema of `--metrics-out`
// files and of the committed BENCH_<tier>.json records alike, and gates
// the deterministic section exactly and the wall-clock section within a
// ratio band.
//
// Lives in the library (not tools/itm_cli.cpp) so the report and diff logic
// is unit-testable without spawning the binary. Exit-code contract matches
// the CLI's: 0 success, 1 regression found (report --baseline only),
// 4 unreadable/malformed input. Usage errors (2) are the CLI's concern.
#pragma once

#include <ostream>
#include <string>

namespace itm::obs {

struct ObsReportOptions {
  std::string metrics_path;
  // When non-empty, diff against this run and fail (exit 1) on regression.
  std::string baseline_path;
  // Ratio band for wall-clock values: current must lie within
  // [baseline/tol, baseline*tol]. Values where both sides are below the
  // noise floor are never flagged.
  double wall_tolerance = 25.0;
  // Absolute floor under which wall-clock values are considered noise.
  double noise_floor = 50.0;
};

// Renders the per-stage summary (wall time, RSS delta, imbalance, top
// counters, latency quantiles) and, with a baseline, the tolerance-classed
// diff: deterministic values must match literal for literal, wall-clock
// values must lie in the band, and a baseline key missing from the current
// run is a regression in either section. Returns 0/1/4 per the contract
// above.
int run_obs_report(const ObsReportOptions& options, std::ostream& out,
                   std::ostream& err);

// Per-stage critical-path and shard-imbalance stats from a Chrome trace
// produced by --trace-out. Returns 0/4.
int run_obs_trace(const std::string& trace_path, std::ostream& out,
                  std::ostream& err);

}  // namespace itm::obs
