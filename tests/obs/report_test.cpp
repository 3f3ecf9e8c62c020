// `itm obs report` / `itm obs trace` engine: summary rendering, baseline
// diff classification (exact for deterministic metrics, ratio-tolerance for
// wall-clock), and the exit-code contract (0 ok, 1 regression, 4 unreadable
// input).
#include "obs/report.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace itm::obs {
namespace {

class TempFile {
 public:
  TempFile(const char* tag, const std::string& contents) {
    // TempDir() honours TEST_TMPDIR/TMPDIR without a getenv at this layer.
    path_ = ::testing::TempDir();
    path_ += "itm_report_";
    path_ += tag;
    path_ += "_";
    path_ += std::to_string(::getpid());
    path_ += ".json";
    std::ofstream out(path_);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A minimal but representative metrics export: two stages' worth of
// wall-clock gauges, a latency quantile block, and deterministic counters.
// `extra_counter` and `extra_wall` are spliced in as further members of the
// deterministic counters and the wall-clock gauges.
std::string metrics_doc(std::uint64_t events, double routing_wall_us,
                        const std::string& extra_counter = "",
                        const std::string& extra_wall = "") {
  std::ostringstream os;
  os << "{\"metrics\": {\"deterministic\": {"
     << "\"counters\": {\"map.workload_events\": " << events
     << ", \"serve.cache.hits\": 7" << extra_counter << "}, "
     << "\"gauges\": {\"map.client_prefixes\": 128}}, "
     << "\"wall_clock\": {"
     << "\"gauges\": {" << extra_wall
     << "\"map.routing.wall_us\": " << routing_wall_us << ", "
     << "\"map.routing.rss_delta_bytes\": 1048576, "
     << "\"map.routing.imbalance_x1000\": 1250, "
     << "\"map.generate.wall_us\": 2000}, "
     << "\"quantiles\": {\"serve.query_latency_us\": "
     << "{\"p50\": 12.5, \"p90\": 40, \"p99\": 90, \"p999\": 200, "
     << "\"count\": 1000, \"sum\": 20000, \"max\": 400, \"mean\": 20}}"
     << "}}}";
  return os.str();
}

int run(const ObsReportOptions& options, std::string* out_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int rc = run_obs_report(options, out, err);
  if (out_text != nullptr) *out_text = out.str() + err.str();
  return rc;
}

TEST(ObsReport, SummarizesStagesLatenciesAndCounters) {
  const TempFile metrics("summary", metrics_doc(500, 9000));
  ObsReportOptions options;
  options.metrics_path = metrics.path();
  std::string text;
  EXPECT_EQ(run(options, &text), 0);
  // Stage table names both stages, latency block names the quantile, and
  // the counter top list names the deterministic counter.
  EXPECT_NE(text.find("map.routing"), std::string::npos) << text;
  EXPECT_NE(text.find("map.generate"), std::string::npos) << text;
  EXPECT_NE(text.find("serve.query_latency_us"), std::string::npos) << text;
  EXPECT_NE(text.find("map.workload_events"), std::string::npos) << text;
}

TEST(ObsReport, IdenticalBaselinePasses) {
  const TempFile metrics("same_a", metrics_doc(500, 9000));
  const TempFile baseline("same_b", metrics_doc(500, 9000));
  ObsReportOptions options;
  options.metrics_path = metrics.path();
  options.baseline_path = baseline.path();
  EXPECT_EQ(run(options), 0);
}

TEST(ObsReport, DeterministicDriftIsAlwaysARegression) {
  // One count off in the deterministic section: exact-match class, any
  // difference fails regardless of magnitude.
  const TempFile metrics("det_a", metrics_doc(501, 9000));
  const TempFile baseline("det_b", metrics_doc(500, 9000));
  ObsReportOptions options;
  options.metrics_path = metrics.path();
  options.baseline_path = baseline.path();
  std::string text;
  EXPECT_EQ(run(options, &text), 1);
  EXPECT_NE(text.find("map.workload_events"), std::string::npos) << text;
}

TEST(ObsReport, WallClockWithinToleranceBandPasses) {
  // 9000 vs 2000 us is well inside the default x25 band.
  const TempFile metrics("band_a", metrics_doc(500, 9000));
  const TempFile baseline("band_b", metrics_doc(500, 2000));
  ObsReportOptions options;
  options.metrics_path = metrics.path();
  options.baseline_path = baseline.path();
  EXPECT_EQ(run(options), 0);
}

TEST(ObsReport, WallClockOutsideToleranceBandFails) {
  // Inject a x4 routing slowdown and tighten the band to x2.
  const TempFile metrics("slow_a", metrics_doc(500, 36000));
  const TempFile baseline("slow_b", metrics_doc(500, 9000));
  ObsReportOptions options;
  options.metrics_path = metrics.path();
  options.baseline_path = baseline.path();
  options.wall_tolerance = 2.0;
  std::string text;
  EXPECT_EQ(run(options, &text), 1);
  EXPECT_NE(text.find("map.routing.wall_us"), std::string::npos) << text;
}

TEST(ObsReport, TinyWallClockValuesAreNoise) {
  // Both sides under the 50-unit noise floor: a x10 ratio means nothing at
  // microsecond scale, so the diff must not flag it.
  const TempFile metrics("noise_a", metrics_doc(500, 4));
  const TempFile baseline("noise_b", metrics_doc(500, 40));
  ObsReportOptions options;
  options.metrics_path = metrics.path();
  options.baseline_path = baseline.path();
  options.wall_tolerance = 2.0;
  EXPECT_EQ(run(options), 0);
}

TEST(ObsReport, IntegersAbove2To53CompareExactly) {
  // 2^53 + 1 and 2^53 are one double apart: read through strtod they
  // compare equal, so the exact class must compare their literals.
  const TempFile metrics("big_a", metrics_doc(9007199254740993ull, 9000));
  const TempFile baseline("big_b", metrics_doc(9007199254740992ull, 9000));
  ObsReportOptions options;
  options.metrics_path = metrics.path();
  options.baseline_path = baseline.path();
  std::string text;
  EXPECT_EQ(run(options, &text), 1);
  EXPECT_NE(text.find("9007199254740993 vs baseline 9007199254740992"),
            std::string::npos)
      << text;
}

TEST(ObsReport, BaselineOnlyKeyIsARegressionInEachSection) {
  const TempFile current("only_cur", metrics_doc(500, 9000));
  const TempFile det_baseline(
      "only_det", metrics_doc(500, 9000, ", \"scan.probes\": 3"));
  const TempFile wall_baseline(
      "only_wall", metrics_doc(500, 9000, "", "\"serve.qps\": 5000, "));
  ObsReportOptions options;
  options.metrics_path = current.path();
  std::string text;
  options.baseline_path = det_baseline.path();
  EXPECT_EQ(run(options, &text), 1);
  EXPECT_NE(text.find("deterministic scan.probes: missing"), std::string::npos)
      << text;
  options.baseline_path = wall_baseline.path();
  EXPECT_EQ(run(options, &text), 1);
  EXPECT_NE(text.find("wall_clock serve.qps: missing"), std::string::npos)
      << text;
  // A key only in the current run is a new metric, not a regression.
  options.metrics_path = det_baseline.path();
  options.baseline_path = current.path();
  EXPECT_EQ(run(options), 0);
}

TEST(ObsReport, NonPositiveValueAgainstPositiveBaselineFails) {
  const TempFile baseline("pos_base", metrics_doc(500, 9000));
  const TempFile zero("pos_zero", metrics_doc(500, 0));
  const TempFile negative("pos_neg", metrics_doc(500, -9000));
  ObsReportOptions options;
  options.baseline_path = baseline.path();
  for (const TempFile* current : {&zero, &negative}) {
    options.metrics_path = current->path();
    std::string text;
    EXPECT_EQ(run(options, &text), 1) << text;
    EXPECT_NE(text.find("map.routing.wall_us"), std::string::npos) << text;
  }
}

TEST(ObsReport, MissingFileIsARuntimeError) {
  ObsReportOptions options;
  options.metrics_path = "/nonexistent/metrics.json";
  EXPECT_EQ(run(options), 4);
}

TEST(ObsReport, MalformedJsonIsARuntimeError) {
  const TempFile metrics("garbage", "{\"metrics\": ");
  ObsReportOptions options;
  options.metrics_path = metrics.path();
  EXPECT_EQ(run(options), 4);
}

TEST(ObsReport, MissingDeterministicSectionIsARuntimeError) {
  const TempFile metrics("nodet", "{\"metrics\": {\"wall_clock\": {}}}");
  ObsReportOptions options;
  options.metrics_path = metrics.path();
  EXPECT_EQ(run(options), 4);
}

TEST(ObsTrace, SummarizesStagesAndShardImbalance) {
  const TempFile trace(
      "trace",
      "{\"traceEvents\": ["
      "{\"name\": \"map.routing\", \"ph\": \"X\", \"ts\": 0, \"dur\": 1000, "
      "\"pid\": 1, \"tid\": 1, \"args\": {\"depth\": 0}}, "
      "{\"name\": \"executor.shard\", \"ph\": \"X\", \"ts\": 10, "
      "\"dur\": 400, \"pid\": 1, \"tid\": 2, \"args\": {\"depth\": 1}}, "
      "{\"name\": \"executor.shard\", \"ph\": \"X\", \"ts\": 10, "
      "\"dur\": 800, \"pid\": 1, \"tid\": 3, \"args\": {\"depth\": 1}}"
      "]}");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_obs_trace(trace.path(), out, err), 0);
  const std::string text = out.str() + err.str();
  EXPECT_NE(text.find("map.routing"), std::string::npos) << text;
  EXPECT_NE(text.find("executor.shard"), std::string::npos) << text;
}

TEST(ObsTrace, MissingTraceEventsIsARuntimeError) {
  const TempFile trace("badtrace", "{\"displayTimeUnit\": \"ms\"}");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_obs_trace(trace.path(), out, err), 4);
}

}  // namespace
}  // namespace itm::obs
