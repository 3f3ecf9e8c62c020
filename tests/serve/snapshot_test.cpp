// Snapshot format tests: lossless round-trip (write -> read -> re-write is
// byte-identical) and rejection of every corrupted variant we can mint —
// truncations, trailing bytes, and single-bit flips anywhere in the file.
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "serve/delta.h"
#include "serve/format.h"

namespace itm::serve {
namespace {

// One tiny map compiled once for every test in the suite.
class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = core::Scenario::generate(core::tiny_config(808)).release();
    core::MapBuilder builder(*scenario_);
    core::MapBuildOptions options;
    options.probe_rounds = 6;
    map_ = new core::TrafficMap(builder.build(options));
    std::ostringstream os;
    write_snapshot(*map_, *scenario_, os);
    blob_ = new std::string(os.str());
  }
  static void TearDownTestSuite() {
    delete blob_;
    delete map_;
    delete scenario_;
  }
  static core::Scenario* scenario_;
  static core::TrafficMap* map_;
  static std::string* blob_;
};

core::Scenario* SnapshotTest::scenario_ = nullptr;
core::TrafficMap* SnapshotTest::map_ = nullptr;
std::string* SnapshotTest::blob_ = nullptr;

TEST_F(SnapshotTest, ReaderAcceptsWriterOutput) {
  std::string error;
  const auto snap = read_snapshot(std::string_view(*blob_), &error);
  ASSERT_TRUE(snap.has_value()) << error;
  EXPECT_EQ(snap->seed, scenario_->config().seed);
  EXPECT_EQ(snap->prefixes.size(), map_->client_prefixes.size());
  EXPECT_EQ(snap->endpoints.size(), map_->tls.endpoints.size());
  EXPECT_EQ(snap->mappings.size(), map_->user_mapping.size());
  EXPECT_EQ(snap->links.size(), map_->recommended_links.size());
  EXPECT_EQ(snap->ases.size(), scenario_->topo().graph.size());
  EXPECT_EQ(snap->observed_links, map_->public_view.link_count());
}

TEST_F(SnapshotTest, RoundTripIsByteIdentical) {
  std::string error;
  const auto snap = read_snapshot(std::string_view(*blob_), &error);
  ASSERT_TRUE(snap.has_value()) << error;
  std::ostringstream again;
  write_snapshot(*snap, again);
  EXPECT_EQ(again.str(), *blob_);
}

TEST_F(SnapshotTest, SortInvariantsHoldAfterLoad) {
  std::string error;
  const auto snap = read_snapshot(std::string_view(*blob_), &error);
  ASSERT_TRUE(snap.has_value()) << error;
  for (std::size_t i = 1; i < snap->ases.size(); ++i) {
    EXPECT_LT(snap->ases[i - 1].asn, snap->ases[i].asn);
  }
  for (std::size_t i = 1; i < snap->prefixes.size(); ++i) {
    const auto& a = snap->prefixes[i - 1];
    const auto& b = snap->prefixes[i];
    EXPECT_LT((std::pair{a.base, a.length}), (std::pair{b.base, b.length}));
    EXPECT_FALSE(a.prefix().contains(b.prefix()));
  }
  for (std::size_t i = 1; i < snap->endpoints.size(); ++i) {
    EXPECT_LT(snap->endpoints[i - 1].address, snap->endpoints[i].address);
  }
  for (std::size_t i = 1; i < snap->mappings.size(); ++i) {
    EXPECT_LT(snap->mappings[i - 1].service, snap->mappings[i].service);
  }
}

TEST_F(SnapshotTest, TruncationsAreRejected) {
  const std::size_t cuts[] = {0,
                              4,
                              8,
                              16,
                              23,
                              24,
                              blob_->size() / 3,
                              blob_->size() / 2,
                              blob_->size() - 1};
  for (const std::size_t cut : cuts) {
    std::string error;
    const auto snap =
        read_snapshot(std::string_view(blob_->data(), cut), &error);
    EXPECT_FALSE(snap.has_value()) << "accepted a truncation to " << cut
                                   << " bytes";
    EXPECT_FALSE(error.empty());
  }
}

TEST_F(SnapshotTest, TrailingBytesAreRejected) {
  std::string padded = *blob_ + '\0';
  std::string error;
  EXPECT_FALSE(read_snapshot(std::string_view(padded), &error).has_value());
  padded = *blob_ + "extra";
  EXPECT_FALSE(read_snapshot(std::string_view(padded), &error).has_value());
}

TEST_F(SnapshotTest, SingleBitFlipsAreRejected) {
  // Every bit of the header and section table region, then a sampled sweep
  // across the payloads (a prime stride so all bit positions get exercised).
  std::string mutated = *blob_;
  const auto check_flip = [&mutated](std::size_t byte, unsigned bit) {
    mutated[byte] = static_cast<char>(
        static_cast<unsigned char>(mutated[byte]) ^ (1u << bit));
    std::string error;
    const bool accepted =
        read_snapshot(std::string_view(mutated), &error).has_value();
    mutated[byte] = static_cast<char>(
        static_cast<unsigned char>(mutated[byte]) ^ (1u << bit));  // restore
    EXPECT_FALSE(accepted) << "accepted a bit flip at byte " << byte
                           << " bit " << bit;
  };
  const std::size_t dense_region = std::min<std::size_t>(blob_->size(), 256);
  for (std::size_t byte = 0; byte < dense_region; ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) check_flip(byte, bit);
  }
  for (std::size_t byte = dense_region; byte < blob_->size(); byte += 997) {
    check_flip(byte, static_cast<unsigned>(byte % 8));
  }
}

TEST_F(SnapshotTest, GarbageIsRejected) {
  std::string error;
  EXPECT_FALSE(read_snapshot(std::string_view("not a snapshot"), &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  const std::string zeros(1024, '\0');
  EXPECT_FALSE(read_snapshot(std::string_view(zeros), &error).has_value());
}

// The pinned oracle: the exact `.itms` bytes of one tiny map, held by their
// size and header checksum. Any refactor of the substrate, the builder or
// the writer must leave these constants alone; a change to them is a
// format or model change and has to be argued for on its own.
TEST(SnapshotOracle, TinyMapBytesArePinned) {
  auto scenario = core::Scenario::generate(core::tiny_config(4242));
  core::MapBuilder builder(*scenario);
  core::MapBuildOptions options;
  options.probe_rounds = 4;
  options.ecs_map_services = 2;
  options.recommend_links = 40;
  const auto map = builder.build(options);
  std::ostringstream os;
  write_snapshot(map, *scenario, os);
  const std::string blob = os.str();
  EXPECT_EQ(blob.size(), 35324u);
  EXPECT_EQ(snapshot_checksum(blob), 10104147745421626180ull);

  // The delta oracle beside it: one diff touching every op kind (meta,
  // replace, remove, add, mapping swap) and both wholesale sections, held
  // by its size and a checksum over every byte of the `.itmsd`.
  std::string error;
  Snapshot target = *read_snapshot(std::string_view(blob), &error);
  target.addresses_probed += 1;
  target.ases.front().activity *= 2.0;
  target.prefixes.erase(target.prefixes.begin());
  target.endpoints.pop_back();
  AsRecord added = target.ases.back();
  added.asn += 7;
  target.ases.push_back(added);
  target.mappings.front().entries.front().address ^= 1u;
  target.strings.push_back("pinned delta");
  target.links.pop_back();
  std::ostringstream target_os;
  write_snapshot(target, target_os);
  const auto delta = diff_snapshots(blob, target_os.str(), &error);
  ASSERT_TRUE(delta.has_value()) << error;
  EXPECT_EQ(delta->size(), 12018u);
  EXPECT_EQ(fnv1a64(*delta), 16535542093778871555ull);
}

}  // namespace
}  // namespace itm::serve
