// `.itmsd` delta tests: diff -> apply reproduces the target snapshot *byte
// for byte* across every mutation kind, through the bytes entry point and
// through a serving epoch's view alike; size-changing splices, chains of
// deltas applied epoch on epoch, self-diffs, and corrupted deltas (bit
// flips, truncations, wrong base, ops on missing keys) are always
// rejected — mirroring the `.itms` property tests.
#include "serve/delta.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "serve/format.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

namespace itm::serve {
namespace {

std::string serialize(const Snapshot& snap) {
  std::ostringstream os;
  write_snapshot(snap, os);
  return os.str();
}

// One tiny map compiled once for every test in the suite.
class DeltaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = core::Scenario::generate(core::tiny_config(808));
    core::MapBuilder builder(*scenario);
    core::MapBuildOptions options;
    options.probe_rounds = 6;
    const auto map = builder.build(options);
    std::ostringstream os;
    write_snapshot(map, *scenario, os);
    base_bytes_ = new std::string(os.str());
    std::string error;
    base_ = new Snapshot(
        *read_snapshot(std::string_view(*base_bytes_), &error));
    base_epoch_ = Epoch::from_bytes(0, *base_bytes_, 0, &error).release();
    ASSERT_NE(base_epoch_, nullptr) << error;
  }
  static void TearDownTestSuite() {
    delete base_epoch_;
    delete base_;
    delete base_bytes_;
  }

  // Round-trip property for one mutated target: diff(base, target) applied
  // to base must reproduce target exactly, whether the base comes as bytes
  // or as a serving epoch's validated view.
  static void expect_round_trip(const Snapshot& target) {
    const std::string target_bytes = serialize(target);
    std::string error;
    const auto delta = diff_snapshots(*base_bytes_, target_bytes, &error);
    ASSERT_TRUE(delta.has_value()) << error;
    const auto applied = apply_delta(*base_bytes_, *delta, &error);
    ASSERT_TRUE(applied.has_value()) << error;
    EXPECT_EQ(*applied, target_bytes);
    const auto spliced = apply_delta(base_epoch_->view(), base_epoch_->bytes(),
                                     *delta, &error);
    ASSERT_TRUE(spliced.has_value()) << error;
    EXPECT_EQ(*spliced, target_bytes);
  }

  static Snapshot* base_;
  static std::string* base_bytes_;
  static Epoch* base_epoch_;
};

Snapshot* DeltaTest::base_ = nullptr;
std::string* DeltaTest::base_bytes_ = nullptr;
Epoch* DeltaTest::base_epoch_ = nullptr;

// Points `delta` at `base` (rewriting its base checksum and re-sealing the
// container), so the applier gets past its base check and reaches the op
// checks against records the delta was not computed for.
std::string rebase(std::string delta, std::string_view base) {
  constexpr std::size_t kHeader = 24;  // magic, version, endian, checksum
  put_u64(delta.data() + kHeader, snapshot_checksum(base));
  put_u64(delta.data() + 16,
          fnv1a64(std::string_view(delta).substr(kHeader)));
  return delta;
}

TEST_F(DeltaTest, SelfDiffIsEmptyAndApplies) {
  std::string error;
  const auto delta = diff_snapshots(*base_bytes_, *base_bytes_, &error);
  ASSERT_TRUE(delta.has_value()) << error;
  const auto info = read_delta_info(*delta, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->ops, 0u);
  EXPECT_FALSE(info->replaces_strings);
  EXPECT_FALSE(info->replaces_links);
  EXPECT_EQ(info->base_checksum, info->target_checksum);
  const auto applied = apply_delta(*base_bytes_, *delta, &error);
  ASSERT_TRUE(applied.has_value()) << error;
  EXPECT_EQ(*applied, *base_bytes_);
}

TEST_F(DeltaTest, EveryMutationKindRoundTrips) {
  ASSERT_FALSE(base_->ases.empty());
  ASSERT_FALSE(base_->prefixes.empty());
  ASSERT_FALSE(base_->endpoints.empty());
  ASSERT_FALSE(base_->mappings.empty());

  const std::vector<std::function<void(Snapshot&)>> mutations = {
      // Meta scalars travel wholesale.
      [](Snapshot& s) { s.addresses_probed += 12345; },
      [](Snapshot& s) { s.seed ^= 0xdeadbeef; },
      // Replace: in-place record edits.
      [](Snapshot& s) { s.ases.front().activity *= 2.0; },
      [](Snapshot& s) { s.ases.back().flags ^= 1u; },
      [](Snapshot& s) { s.prefixes.front().origin_asn = kNoRef; },
      [](Snapshot& s) { s.endpoints.front().flags ^= 1u; },
      // Remove: drop keyed records.
      [](Snapshot& s) { s.ases.pop_back(); },
      [](Snapshot& s) { s.prefixes.erase(s.prefixes.begin()); },
      [](Snapshot& s) { s.endpoints.pop_back(); },
      [](Snapshot& s) { s.mappings.pop_back(); },
      // Add: new keyed records (keys above the current maximum keep the
      // sort invariants).
      [](Snapshot& s) {
        AsRecord as = s.ases.back();
        as.asn += 7;
        s.ases.push_back(as);
      },
      [](Snapshot& s) {
        EndpointRecord ep = s.endpoints.back();
        ep.address += 256;
        s.endpoints.push_back(ep);
      },
      [](Snapshot& s) {
        ServiceMapping mapping = s.mappings.back();
        mapping.service += 3;
        s.mappings.push_back(mapping);
      },
      // Mapping contents swap as a unit (replace of the whole service).
      [](Snapshot& s) {
        auto& entries = s.mappings.front().entries;
        if (!entries.empty()) entries.front().address ^= 1u;
      },
      // Order-sensitive sections travel as full replacements.
      [](Snapshot& s) { s.strings.push_back("delta-test-string"); },
      [](Snapshot& s) {
        LinkRecord link;
        link.a = 1;
        link.b = 2;
        link.score = 0.5;
        s.links.insert(s.links.begin(), link);
      },
      [](Snapshot& s) { s.links.clear(); },
  };
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    Snapshot target = *base_;
    mutations[i](target);
    SCOPED_TRACE("mutation " + std::to_string(i));
    expect_round_trip(target);
  }
}

TEST_F(DeltaTest, SectionSizeChangesMoveEveryLaterOffset) {
  // Each edit grows or shrinks a section, so every section after it, and
  // its offset in the table, moves; the splice must still land every byte.
  ASSERT_GE(base_->prefixes.size(), 3u);
  ASSERT_GE(base_->endpoints.size(), 3u);
  ASSERT_GE(base_->mappings.size(), 2u);
  ASSERT_FALSE(base_->links.empty());
  ASSERT_GT(base_->prefixes.back().length, 0u);
  ASSERT_GT(base_->endpoints.front().address, 0u);
  const auto grow_prefix = [](Snapshot& s) {
    // A prefix just past the last one: sorted, disjoint from the rest.
    PrefixRecord added = s.prefixes.back();
    added.base += 1u << (32 - added.length);
    s.prefixes.push_back(added);
  };
  const std::vector<std::function<void(Snapshot&)>> mutations = {
      grow_prefix,
      [](Snapshot& s) {
        s.prefixes.erase(s.prefixes.begin() + 1);  // a middle key
      },
      [](Snapshot& s) {
        EndpointRecord added = s.endpoints.front();
        --added.address;  // a new first key
        s.endpoints.insert(s.endpoints.begin(), added);
      },
      [](Snapshot& s) { s.endpoints.erase(s.endpoints.begin() + 1); },
      [](Snapshot& s) { s.mappings.erase(s.mappings.begin()); },
      [](Snapshot& s) {
        ServiceMapping mapping = s.mappings.front();
        mapping.entries.resize(mapping.entries.size() / 2);
        s.mappings.front() = mapping;  // a replace of another size
      },
      [](Snapshot& s) {
        ServiceMapping added = s.mappings.back();
        added.service += 5;
        s.mappings.push_back(added);
      },
      [](Snapshot& s) { s.strings.back() += "-with-a-longer-name"; },
      [](Snapshot& s) { s.links.resize(s.links.size() / 2); },
      // All of the above kinds in one delta.
      [&grow_prefix](Snapshot& s) {
        grow_prefix(s);
        s.endpoints.pop_back();
        s.mappings.erase(s.mappings.begin());
        s.strings.push_back("one-more-operator");
        s.links.push_back(s.links.front());
      },
  };
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    Snapshot target = *base_;
    mutations[i](target);
    SCOPED_TRACE("mutation " + std::to_string(i));
    ASSERT_NE(serialize(target).size(), base_bytes_->size());
    expect_round_trip(target);
  }
}

TEST_F(DeltaTest, CyclicChainAppliedEpochOnEpochReturnsToStart) {
  // base -> s1 -> s2 -> s3 -> base, each step applied to the previous
  // step's epoch through its view, as `itm served` chains apply-delta.
  std::vector<std::string> states{*base_bytes_};
  Snapshot next = *base_;
  next.ases.front().activity += 0.5;
  next.endpoints.pop_back();
  states.push_back(serialize(next));
  next.prefixes.erase(next.prefixes.begin());
  next.strings.push_back("chain-step-two");
  states.push_back(serialize(next));
  next.mappings.pop_back();
  next.links.clear();
  next.addresses_probed += 99;
  states.push_back(serialize(next));
  states.push_back(*base_bytes_);

  std::string error;
  std::unique_ptr<Epoch> live =
      Epoch::from_bytes(0, states.front(), 0, &error);
  ASSERT_NE(live, nullptr) << error;
  for (std::size_t k = 1; k < states.size(); ++k) {
    SCOPED_TRACE("step " + std::to_string(k));
    const auto delta = diff_snapshots(states[k - 1], states[k], &error);
    ASSERT_TRUE(delta.has_value()) << error;
    auto applied = apply_delta(live->view(), live->bytes(), *delta, &error);
    ASSERT_TRUE(applied.has_value()) << error;
    ASSERT_EQ(*applied, states[k]);
    live = Epoch::from_bytes(k, std::move(*applied), 0, &error);
    ASSERT_NE(live, nullptr) << error;
  }
  EXPECT_EQ(live->bytes(), *base_bytes_);
  EXPECT_EQ(live->checksum(), base_epoch_->checksum());
}

TEST_F(DeltaTest, ReplaceOfMissingKeyIsRejectedThroughTheView) {
  // "replace a middle AS", rebased onto an epoch where that AS is gone:
  // the binary search lands on its successor, which must not be taken
  // for it.
  ASSERT_GE(base_->ases.size(), 3u);
  const std::size_t middle = base_->ases.size() / 2;
  Snapshot edited = *base_;
  edited.ases[middle].activity += 1.0;
  Snapshot fewer = *base_;
  fewer.ases.erase(fewer.ases.begin() + static_cast<std::ptrdiff_t>(middle));
  const std::string fewer_bytes = serialize(fewer);
  std::string error;
  const auto delta = diff_snapshots(*base_bytes_, serialize(edited), &error);
  ASSERT_TRUE(delta.has_value()) << error;
  const auto epoch = Epoch::from_bytes(0, fewer_bytes, 0, &error);
  ASSERT_NE(epoch, nullptr) << error;
  EXPECT_FALSE(apply_delta(epoch->view(), epoch->bytes(),
                           rebase(*delta, fewer_bytes), &error)
                   .has_value());
  EXPECT_EQ(error, "AS replace op targets a missing key");
}

TEST_F(DeltaTest, CompoundMutationRoundTripsAndStaysSmall) {
  Snapshot target = *base_;
  target.addresses_probed += 1;
  target.ases.front().activity += 1.0;
  target.ases.pop_back();
  target.endpoints.front().flags ^= 2u;
  const std::string target_bytes = serialize(target);
  std::string error;
  const auto delta = diff_snapshots(*base_bytes_, target_bytes, &error);
  ASSERT_TRUE(delta.has_value()) << error;
  // A handful of record edits must not cost anywhere near a full snapshot.
  EXPECT_LT(delta->size(), target_bytes.size() / 4);
  const auto info = read_delta_info(*delta, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->ops, 3u);
  const auto applied = apply_delta(*base_bytes_, *delta, &error);
  ASSERT_TRUE(applied.has_value()) << error;
  EXPECT_EQ(*applied, target_bytes);
}

TEST_F(DeltaTest, AppliedSnapshotAnswersIdentically) {
  Snapshot target = *base_;
  target.ases.front().activity *= 3.0;
  target.endpoints.pop_back();
  const std::string target_bytes = serialize(target);
  std::string error;
  const auto delta = diff_snapshots(*base_bytes_, target_bytes, &error);
  ASSERT_TRUE(delta.has_value()) << error;
  const auto applied = apply_delta(*base_bytes_, *delta, &error);
  ASSERT_TRUE(applied.has_value()) << error;

  const auto applied_view = borrow_snapshot(*applied, &error);
  ASSERT_TRUE(applied_view.has_value()) << error;
  const auto target_view = borrow_snapshot(target_bytes, &error);
  ASSERT_TRUE(target_view.has_value()) << error;
  QueryEngine applied_engine(*applied_view, 0);
  QueryEngine target_engine(*target_view, 0);
  for (const char* q : {"stats", "top-as 10", "top-country 5",
                        "lookup 10.0.0.1", "outage 4808"}) {
    EXPECT_EQ(applied_engine.answer(q), target_engine.answer(q)) << q;
  }
}

TEST_F(DeltaTest, ApplyRejectsWrongBase) {
  Snapshot target = *base_;
  target.addresses_probed += 1;
  const std::string target_bytes = serialize(target);
  std::string error;
  const auto delta = diff_snapshots(*base_bytes_, target_bytes, &error);
  ASSERT_TRUE(delta.has_value()) << error;
  // Applying to the target (instead of the base) must fail the base check.
  EXPECT_FALSE(apply_delta(target_bytes, *delta, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST_F(DeltaTest, SingleBitFlipsAreRejected) {
  Snapshot target = *base_;
  target.ases.front().activity += 1.0;
  target.strings.push_back("flip target");
  const std::string target_bytes = serialize(target);
  std::string error;
  const auto delta = diff_snapshots(*base_bytes_, target_bytes, &error);
  ASSERT_TRUE(delta.has_value()) << error;

  std::string mutated = *delta;
  const auto check_flip = [&](std::size_t byte, unsigned bit) {
    mutated[byte] = static_cast<char>(
        static_cast<unsigned char>(mutated[byte]) ^ (1u << bit));
    std::string flip_error;
    const bool accepted =
        apply_delta(*base_bytes_, mutated, &flip_error).has_value();
    mutated[byte] = static_cast<char>(
        static_cast<unsigned char>(mutated[byte]) ^ (1u << bit));  // restore
    EXPECT_FALSE(accepted) << "accepted a delta bit flip at byte " << byte
                           << " bit " << bit;
  };
  for (std::size_t byte = 0; byte < mutated.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) check_flip(byte, bit);
  }
}

TEST_F(DeltaTest, TruncationsAndGarbageAreRejected) {
  Snapshot target = *base_;
  target.addresses_probed += 1;
  const std::string target_bytes = serialize(target);
  std::string error;
  const auto delta = diff_snapshots(*base_bytes_, target_bytes, &error);
  ASSERT_TRUE(delta.has_value()) << error;

  const std::size_t cuts[] = {0, 4, 8, 16, 23, 24, delta->size() / 2,
                              delta->size() - 1};
  for (const std::size_t cut : cuts) {
    std::string cut_error;
    EXPECT_FALSE(apply_delta(*base_bytes_,
                             std::string_view(delta->data(), cut), &cut_error)
                     .has_value())
        << "accepted a truncation to " << cut << " bytes";
    EXPECT_FALSE(cut_error.empty());
  }
  std::string padded = *delta + "extra";
  EXPECT_FALSE(apply_delta(*base_bytes_, padded, &error).has_value());
  EXPECT_FALSE(apply_delta(*base_bytes_, "not a delta", &error).has_value());
  EXPECT_FALSE(read_delta_info("not a delta", &error).has_value());
  // A full snapshot is not a delta.
  EXPECT_FALSE(apply_delta(*base_bytes_, *base_bytes_, &error).has_value());
}

}  // namespace
}  // namespace itm::serve
