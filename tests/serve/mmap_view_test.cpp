// Zero-copy loading tests: the borrowed SnapshotView over raw bytes must be
// observationally identical to the owned Snapshot, section for section and
// record for record; mmap and in-memory epochs must answer the protocol
// identically; and MmapSnapshot must reject every corrupted file the
// buffer reader rejects.
#include "serve/mmap.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

namespace itm::serve {
namespace {

// One tiny map compiled once for every test in the suite.
class MmapViewTest : public ::testing::Test {
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

  // Writes `bytes` to a fresh temp file and returns its path.
  static std::string write_temp(const std::string& bytes, const char* tag) {
    std::string path = ::testing::TempDir() + "mmap_view_test_" + tag +
                       ".itms";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return path;
  }

  static core::Scenario* scenario_;
  static core::TrafficMap* map_;
  static std::string* blob_;
};

core::Scenario* MmapViewTest::scenario_ = nullptr;
core::TrafficMap* MmapViewTest::map_ = nullptr;
std::string* MmapViewTest::blob_ = nullptr;

TEST_F(MmapViewTest, BorrowedViewMatchesOwnedSnapshot) {
  std::string error;
  const auto owned = read_snapshot(std::string_view(*blob_), &error);
  ASSERT_TRUE(owned.has_value()) << error;
  const auto borrowed = borrow_snapshot(std::string_view(*blob_), &error);
  ASSERT_TRUE(borrowed.has_value()) << error;

  EXPECT_EQ(borrowed->seed, owned->seed);
  EXPECT_EQ(borrowed->addresses_probed, owned->addresses_probed);
  EXPECT_EQ(borrowed->observed_links, owned->observed_links);

  ASSERT_EQ(borrowed->strings.size(), owned->strings.size());
  for (std::size_t i = 0; i < owned->strings.size(); ++i) {
    EXPECT_EQ(borrowed->strings[i], owned->strings[i]);
  }
  ASSERT_EQ(borrowed->countries.size(), owned->countries.size());
  for (std::size_t i = 0; i < owned->countries.size(); ++i) {
    EXPECT_EQ(borrowed->countries[i].country, owned->countries[i].country);
    EXPECT_EQ(borrowed->countries[i].name_ref, owned->countries[i].name_ref);
  }
  ASSERT_EQ(borrowed->ases.size(), owned->ases.size());
  for (std::size_t i = 0; i < owned->ases.size(); ++i) {
    const AsRecord a = borrowed->ases[i];
    const AsRecord& b = owned->ases[i];
    EXPECT_EQ(a.asn, b.asn);
    EXPECT_EQ(a.name_ref, b.name_ref);
    EXPECT_EQ(a.country, b.country);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.activity, b.activity);
  }
  ASSERT_EQ(borrowed->prefixes.size(), owned->prefixes.size());
  for (std::size_t i = 0; i < owned->prefixes.size(); ++i) {
    const PrefixRecord a = borrowed->prefixes[i];
    const PrefixRecord& b = owned->prefixes[i];
    EXPECT_EQ(a.base, b.base);
    EXPECT_EQ(a.length, b.length);
    EXPECT_EQ(a.origin_asn, b.origin_asn);
  }
  ASSERT_EQ(borrowed->endpoints.size(), owned->endpoints.size());
  for (std::size_t i = 0; i < owned->endpoints.size(); ++i) {
    const EndpointRecord a = borrowed->endpoints[i];
    const EndpointRecord& b = owned->endpoints[i];
    EXPECT_EQ(a.address, b.address);
    EXPECT_EQ(a.origin_asn, b.origin_asn);
    EXPECT_EQ(a.operator_ref, b.operator_ref);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.lat_deg, b.lat_deg);
    EXPECT_EQ(a.lon_deg, b.lon_deg);
  }
  ASSERT_EQ(borrowed->mappings.size(), owned->mappings.size());
  for (std::size_t m = 0; m < owned->mappings.size(); ++m) {
    const ServiceMappingView a = borrowed->mappings[m];
    const ServiceMapping& b = owned->mappings[m];
    EXPECT_EQ(a.service, b.service);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t e = 0; e < b.entries.size(); ++e) {
      EXPECT_EQ(a.entries[e].prefix_base, b.entries[e].prefix_base);
      EXPECT_EQ(a.entries[e].prefix_length, b.entries[e].prefix_length);
      EXPECT_EQ(a.entries[e].address, b.entries[e].address);
    }
  }
  ASSERT_EQ(borrowed->links.size(), owned->links.size());
  for (std::size_t i = 0; i < owned->links.size(); ++i) {
    EXPECT_EQ(borrowed->links[i].a, owned->links[i].a);
    EXPECT_EQ(borrowed->links[i].b, owned->links[i].b);
    EXPECT_EQ(borrowed->links[i].score, owned->links[i].score);
  }
}

TEST_F(MmapViewTest, EngineAnswersMatchAcrossBackends) {
  // The two epoch storages the server runs: an mmap of the file, and
  // in-memory bytes (the delta-apply path). Both serve through one view
  // type; their answers must not depend on where the bytes live.
  const std::string path = write_temp(*blob_, "backends");
  std::string error;
  const auto mapped = Epoch::from_file(0, path, 0, &error);
  ASSERT_NE(mapped, nullptr) << error;
  const auto in_memory = Epoch::from_bytes(1, *blob_, 0, &error);
  ASSERT_NE(in_memory, nullptr) << error;
  const QueryEngine& mmap_engine = mapped->engine();
  const QueryEngine& bytes_engine = in_memory->engine();
  const auto owned = read_snapshot(std::string_view(*blob_), &error);
  ASSERT_TRUE(owned.has_value()) << error;

  const std::string queries[] = {
      "stats",
      "top-as 10",
      "top-country 5",
      "lookup 10.0.0.1",
      "lookup 100.64.9.1",
      "prefix 10.0.0.0/24",
      "as 4808",
      "outage 4808",
      "country 3",
      "bogus line",
  };
  for (const auto& q : queries) {
    EXPECT_EQ(mmap_engine.answer(q), bytes_engine.answer(q)) << q;
  }
  // Sweep every AS so find_as and the per-AS indexes get full coverage.
  for (std::size_t i = 0; i < owned->ases.size(); ++i) {
    const std::string q = "as " + std::to_string(owned->ases[i].asn);
    EXPECT_EQ(mmap_engine.answer(q), bytes_engine.answer(q)) << q;
    const std::string o = "outage " + std::to_string(owned->ases[i].asn);
    EXPECT_EQ(mmap_engine.answer(o), bytes_engine.answer(o)) << o;
  }
  // And every detected prefix base, exercising the covering-prefix search.
  for (std::size_t i = 0; i < owned->prefixes.size(); ++i) {
    const std::string q =
        "lookup " + owned->prefixes[i].prefix().base().to_string();
    EXPECT_EQ(mmap_engine.answer(q), bytes_engine.answer(q)) << q;
  }
  std::remove(path.c_str());
}

TEST_F(MmapViewTest, MmapLoadsValidSnapshot) {
  const std::string path = write_temp(*blob_, "valid");
  std::string error;
  const auto mapped = MmapSnapshot::open(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  EXPECT_EQ(mapped->size(), blob_->size());
  EXPECT_EQ(mapped->bytes(), std::string_view(*blob_));
  EXPECT_EQ(mapped->view().prefixes.size(), map_->client_prefixes.size());
  std::remove(path.c_str());
}

TEST_F(MmapViewTest, MmapRejectsMissingTruncatedAndCorrupted) {
  std::string error;
  EXPECT_FALSE(MmapSnapshot::open("/no/such/file.itms", &error).has_value());
  EXPECT_FALSE(error.empty());

  const std::string truncated_path =
      write_temp(blob_->substr(0, blob_->size() / 2), "truncated");
  EXPECT_FALSE(MmapSnapshot::open(truncated_path, &error).has_value());
  std::remove(truncated_path.c_str());

  std::string flipped = *blob_;
  flipped[flipped.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(flipped[flipped.size() / 2]) ^
                        0x40);
  const std::string flipped_path = write_temp(flipped, "flipped");
  EXPECT_FALSE(MmapSnapshot::open(flipped_path, &error).has_value());
  std::remove(flipped_path.c_str());

  const std::string garbage_path = write_temp("not a snapshot", "garbage");
  EXPECT_FALSE(MmapSnapshot::open(garbage_path, &error).has_value());
  std::remove(garbage_path.c_str());

  const std::string empty_path = write_temp("", "empty");
  EXPECT_FALSE(MmapSnapshot::open(empty_path, &error).has_value());
  std::remove(empty_path.c_str());
}

TEST_F(MmapViewTest, MoveTransfersOwnership) {
  const std::string path = write_temp(*blob_, "move");
  std::string error;
  auto mapped = MmapSnapshot::open(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  MmapSnapshot moved = std::move(*mapped);
  EXPECT_EQ(moved.size(), blob_->size());
  EXPECT_EQ(moved.view().ases.size(), scenario_->topo().graph.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace itm::serve
