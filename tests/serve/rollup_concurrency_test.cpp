// The rollup index is built lazily, on an engine's first rollup answer.
// Labeled `tsan` so tools/check_tsan.sh runs it under ThreadSanitizer: many
// threads asking a fresh engine their first rollups at the same moment
// must share one build and get the answers a serial engine gives.
#include <gtest/gtest.h>

#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "serve/query_engine.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

namespace itm::serve {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = core::Scenario::generate(core::tiny_config(808));
    core::MapBuilder builder(*scenario);
    core::MapBuildOptions options;
    options.probe_rounds = 6;
    const auto map = builder.build(options);
    std::ostringstream os;
    write_snapshot(map, *scenario, os);
    bytes_ = new std::string(os.str());
    std::string error;
    auto view = borrow_snapshot(*bytes_, &error);
    ASSERT_TRUE(view.has_value()) << error;
    view_ = new SnapshotView(std::move(*view));
  }
  static void TearDownTestSuite() {
    delete view_;
    delete bytes_;
  }
  static std::string* bytes_;
  static SnapshotView* view_;
};

std::string* QueryEngineTest::bytes_ = nullptr;
SnapshotView* QueryEngineTest::view_ = nullptr;

TEST_F(QueryEngineTest, RollupIndexBuildsOnceUnderConcurrentReaders) {
  // Every rollup verb, over every AS and country, plus k past the end,
  // and stats.
  std::vector<std::string> lines{"top-as 1", "top-as 100000",
                                 "top-country 3", "top-country 100000",
                                 "stats"};
  for (std::size_t i = 0; i < view_->ases.size(); ++i) {
    lines.push_back("outage " + std::to_string(view_->ases[i].asn));
  }
  for (std::size_t c = 0; c < view_->countries.size(); ++c) {
    lines.push_back("country " +
                    std::to_string(view_->countries[c].country));
  }
  std::vector<std::string> expected;
  {
    const QueryEngine serial(*view_);
    for (const std::string& line : lines) {
      expected.push_back(serial.answer(line));
    }
  }

  // The threads start at different lines (top-as, top-country, outage,
  // country), so the first rollups to race for the build are of every
  // kind.
  constexpr std::size_t kThreads = 8;
  const std::size_t n = lines.size();
  const std::size_t first[kThreads] = {0, 1, 2, 3, 5, 6, n - 2, n - 1};
  const QueryEngine engine(*view_);
  std::latch start(kThreads);
  std::vector<std::vector<std::string>> replies(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = replies[t];
      mine.resize(n);
      start.arrive_and_wait();
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (first[t] + k) % n;
        mine[i] = engine.answer(lines[i]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(replies[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace itm::serve
