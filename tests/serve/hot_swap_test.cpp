// Hot-swap stress tests (labeled `tsan` so tools/check_tsan.sh runs them
// under ThreadSanitizer): reader threads hammer queries through the
// EpochManager hazard slots while a writer applies a chain of deltas and
// installs the resulting epochs. Every answer tuple taken under a single
// pin must match exactly one snapshot version — pre- or post-swap, never a
// blend — and versions observed by one reader never go backwards.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "serve/delta.h"
#include "serve/query_engine.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

namespace itm::serve {
namespace {

// The probe queries answered under one pin. "stats" embeds
// addresses_probed and the seed, so every version below answers it
// differently — a blended tuple cannot match any single version.
const char* const kProbes[] = {"stats", "top-as 3"};
constexpr std::size_t kProbeCount = 2;
constexpr std::size_t kVersions = 5;  // version 0 + 4 delta steps

class HotSwapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = core::Scenario::generate(core::tiny_config(808));
    core::MapBuilder builder(*scenario);
    core::MapBuildOptions options;
    options.probe_rounds = 6;
    const auto map = builder.build(options);
    std::ostringstream os;
    write_snapshot(map, *scenario, os);

    versions_ = new std::vector<std::string>;
    deltas_ = new std::vector<std::string>;
    expected_ = new std::vector<std::vector<std::string>>;
    versions_->push_back(os.str());

    std::string error;
    Snapshot snap = *read_snapshot(std::string_view(versions_->front()),
                                   &error);
    for (std::size_t k = 1; k < kVersions; ++k) {
      // Each step changes the stats line and the activity ranking.
      snap.addresses_probed += 1000 + k;
      snap.ases.front().activity += static_cast<double>(k);
      std::ostringstream vos;
      write_snapshot(snap, vos);
      versions_->push_back(vos.str());
      const auto delta = diff_snapshots((*versions_)[k - 1], (*versions_)[k],
                                        &error);
      ASSERT_TRUE(delta.has_value()) << error;
      deltas_->push_back(*delta);
    }
    for (const std::string& bytes : *versions_) {
      const auto view = borrow_snapshot(bytes, &error);
      ASSERT_TRUE(view.has_value()) << error;
      const QueryEngine engine(*view, 0);
      std::vector<std::string> answers;
      for (const char* q : kProbes) answers.push_back(engine.answer(q));
      expected_->push_back(std::move(answers));
    }
    // The versions must be distinguishable or the blend assertion is vacuous.
    for (std::size_t k = 1; k < kVersions; ++k) {
      ASSERT_NE((*expected_)[k][0], (*expected_)[k - 1][0]);
    }
  }
  static void TearDownTestSuite() {
    delete expected_;
    delete deltas_;
    delete versions_;
  }

  static std::unique_ptr<const Epoch> make_epoch(std::uint64_t id,
                                                 const std::string& bytes) {
    std::string error;
    auto epoch = Epoch::from_bytes(id, bytes, /*cache_capacity=*/64, &error);
    EXPECT_NE(epoch, nullptr) << error;
    return epoch;
  }

  static std::vector<std::string>* versions_;
  static std::vector<std::string>* deltas_;
  static std::vector<std::vector<std::string>>* expected_;
};

std::vector<std::string>* HotSwapTest::versions_ = nullptr;
std::vector<std::string>* HotSwapTest::deltas_ = nullptr;
std::vector<std::vector<std::string>>* HotSwapTest::expected_ = nullptr;

TEST_F(HotSwapTest, EpochAnswersAndCounts) {
  const auto epoch = make_epoch(0, versions_->front());
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->checksum(), snapshot_checksum(versions_->front()));
  EXPECT_EQ(epoch->bytes(), std::string_view(versions_->front()));
  std::vector<std::string> lines{"stats", "stats"};
  epoch->answer_batch(lines, net::Executor::serial());
  EXPECT_EQ(lines[0], (*expected_)[0][0]);
  EXPECT_EQ(lines[1], lines[0]);
  EXPECT_EQ(epoch->engine().cache_counts().hits, 1u);
  EXPECT_EQ(epoch->queries(), 2u);
}

TEST_F(HotSwapTest, InstallWaitsForPinnedReaders) {
  EpochManager manager;
  ASSERT_EQ(manager.install(make_epoch(0, (*versions_)[0])), nullptr);
  const Epoch* pinned = manager.pin(0);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->id(), 0u);

  std::atomic<bool> writer_done{false};
  std::unique_ptr<const Epoch> retired;
  std::thread writer([&] {
    retired = manager.install(make_epoch(1, (*versions_)[1]));
    writer_done.store(true, std::memory_order_release);
  });
  // The writer cannot finish its grace wait while slot 0 still pins the
  // old epoch — `writer_done` is provably false until we unpin.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_done.load(std::memory_order_acquire));
  // The pinned epoch stays fully usable throughout the writer's wait.
  EXPECT_EQ(pinned->engine().answer("stats"), (*expected_)[0][0]);
  manager.unpin(0);
  writer.join();
  ASSERT_NE(retired, nullptr);
  EXPECT_EQ(retired->id(), 0u);
  EXPECT_EQ(manager.current()->id(), 1u);
  EXPECT_EQ(manager.swaps(), 2u);

  // A fresh pin after the swap sees the new epoch.
  const EpochPin pin(manager, 0);
  EXPECT_EQ(pin->id(), 1u);
  EXPECT_EQ(pin->engine().answer("stats"), (*expected_)[1][0]);
}

TEST_F(HotSwapTest, ReadersNeverObserveABlend) {
  EpochManager manager;
  ASSERT_EQ(manager.install(make_epoch(0, (*versions_)[0])), nullptr);

  constexpr std::size_t kReaders = 3;
  constexpr std::uint64_t kMinIterations = 40;
  std::atomic<bool> done{false};
  std::vector<std::string> failures(kReaders);
  std::vector<std::uint64_t> iterations(kReaders, 0);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Slot r+1: the writer never pins, readers never share a slot.
      const std::size_t slot = r + 1;
      std::size_t last_version = 0;
      while (!done.load(std::memory_order_acquire) ||
             iterations[r] < kMinIterations) {
        std::vector<std::string> got(kProbeCount);
        {
          const EpochPin pin(manager, slot);
          for (std::size_t q = 0; q < kProbeCount; ++q) {
            got[q] = pin->engine().answer(kProbes[q]);
          }
        }
        std::size_t version = kVersions;
        for (std::size_t v = 0; v < kVersions; ++v) {
          if (got == (*expected_)[v]) {
            version = v;
            break;
          }
        }
        if (version == kVersions) {
          failures[r] = "answer tuple matches no version: " + got[0];
          break;
        }
        if (version < last_version) {
          failures[r] = "epoch went backwards: " +
                        std::to_string(last_version) + " -> " +
                        std::to_string(version);
          break;
        }
        last_version = version;
        ++iterations[r];
      }
    });
  }

  // Writer: chase the version chain by applying each delta to the live
  // epoch's bytes — exactly what `apply-delta` does in the server.
  std::vector<std::unique_ptr<const Epoch>> retired;
  for (std::size_t k = 1; k < kVersions; ++k) {
    std::string error;
    const auto applied = apply_delta(manager.current()->bytes(),
                                     (*deltas_)[k - 1], &error);
    ASSERT_TRUE(applied.has_value()) << error;
    ASSERT_EQ(*applied, (*versions_)[k]);  // byte-identical to the target
    auto next = make_epoch(k, *applied);
    ASSERT_NE(next, nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto old = manager.install(std::move(next));
    ASSERT_NE(old, nullptr);
    EXPECT_EQ(old->id(), k - 1);
    retired.push_back(std::move(old));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(failures[r].empty()) << "reader " << r << ": " << failures[r];
    EXPECT_GE(iterations[r], kMinIterations);
  }
  EXPECT_EQ(manager.swaps(), kVersions);
  EXPECT_EQ(manager.current()->id(), kVersions - 1);
  EXPECT_EQ(retired.size(), kVersions - 1);
}

}  // namespace
}  // namespace itm::serve
