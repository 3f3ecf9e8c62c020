// Trust-boundary tests for the `.itms` validator and the `.itmsd` applier.
//
// The corruption tests in snapshot_test.cpp and delta_test.cpp stop at the
// checksum: a flipped bit never reaches a record check. These tests re-seal
// every mutated input (owned snapshots through write_snapshot, raw bytes by
// recomputing the header checksum), so each record-level rejection is hit
// on its own and its exact diagnostic is pinned. The property tests then
// flip single bits past the checksum and require that every input is
// either rejected with a one-line error or loads, round-trips and answers.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "net/rng.h"
#include "serve/delta.h"
#include "serve/format.h"
#include "serve/query_engine.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"

namespace itm::serve {
namespace {

constexpr std::size_t kHeaderBytes = 24;  // magic, version, endian, checksum

std::string serialize(const Snapshot& snap) {
  std::ostringstream os;
  write_snapshot(snap, os);
  return os.str();
}

std::uint32_t load_u32(const std::string& bytes, std::size_t at) {
  ByteReader r(std::string_view(bytes).substr(at, 4));
  return r.u32();
}

void store_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  ByteWriter w;
  w.u32(v);
  bytes.replace(at, 4, w.buffer());
}

void store_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  bytes.replace(at, 8, w.buffer());
}

// Recomputes the header checksum over the tail — the same seal `.itms` and
// `.itmsd` share — so a mutation reaches the checks behind it.
void reseal(std::string& bytes) {
  store_u64(bytes, 16, fnv1a64(std::string_view(bytes).substr(kHeaderBytes)));
}

// Byte offset of a snapshot section's payload, read from the section table
// (24-byte entries after the 16-byte seed/count/reserved preamble).
std::size_t section_offset(const std::string& bytes, SectionId id) {
  const std::uint32_t count = load_u32(bytes, kHeaderBytes + 8);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t entry = kHeaderBytes + 16 + std::size_t{i} * 24;
    if (load_u32(bytes, entry) == static_cast<std::uint32_t>(id)) {
      ByteReader r(std::string_view(bytes).substr(entry + 8, 8));
      return static_cast<std::size_t>(r.u64());
    }
  }
  ADD_FAILURE() << "section " << static_cast<std::uint32_t>(id) << " missing";
  return 0;
}

// The diagnostic borrow_snapshot reports for `bytes` ("" when accepted).
std::string snapshot_rejection(const std::string& bytes) {
  std::string error;
  if (borrow_snapshot(bytes, &error).has_value()) return "";
  return error;
}

// The diagnostic apply_delta reports ("" when accepted).
std::string delta_rejection(const std::string& base,
                            const std::string& delta) {
  std::string error;
  if (apply_delta(base, delta, &error).has_value()) return "";
  return error;
}

// A delta rebased onto `base`: its base-checksum field is rewritten and the
// container re-sealed, so the applier gets past its base check and reaches
// the op checks against records the delta was not computed for.
std::string rebase(std::string delta, const std::string& base) {
  store_u64(delta, kHeaderBytes, snapshot_checksum(base));
  reseal(delta);
  return delta;
}

// One tiny map compiled once for every test in the suite.
class ValidationTest : public ::testing::Test {
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
    base_ = new Snapshot(*read_snapshot(std::string_view(*bytes_), &error));
  }
  static void TearDownTestSuite() {
    delete base_;
    delete bytes_;
  }

  static std::string mutated(const std::function<void(Snapshot&)>& edit) {
    Snapshot snap = *base_;
    edit(snap);
    return serialize(snap);
  }

  static std::string diff(const std::string& from, const std::string& to) {
    std::string error;
    auto delta = diff_snapshots(from, to, &error);
    EXPECT_TRUE(delta.has_value()) << error;
    return delta.value_or("");
  }

  static Snapshot* base_;
  static std::string* bytes_;
};

Snapshot* ValidationTest::base_ = nullptr;
std::string* ValidationTest::bytes_ = nullptr;

TEST_F(ValidationTest, FixtureHasEnoughRecordsToMutate) {
  ASSERT_GE(base_->countries.size(), 2u);
  ASSERT_GE(base_->ases.size(), 2u);
  ASSERT_GE(base_->prefixes.size(), 2u);
  ASSERT_LT(base_->prefixes.front().length, 32u);
  ASSERT_GE(base_->endpoints.size(), 2u);
  ASSERT_GE(base_->mappings.size(), 2u);
  ASSERT_GE(base_->mappings.front().entries.size(), 2u);
  ASSERT_FALSE(base_->links.empty());
  EXPECT_EQ(snapshot_rejection(serialize(*base_)), "");
}

TEST_F(ValidationTest, StringReferencesOutOfRangeAreRejected) {
  const auto past_end = static_cast<std::uint32_t>(base_->strings.size());
  EXPECT_EQ(snapshot_rejection(mutated([&](Snapshot& s) {
              s.countries.front().name_ref = past_end;
            })),
            "country name reference out of range");
  EXPECT_EQ(snapshot_rejection(mutated([&](Snapshot& s) {
              s.ases.back().name_ref = past_end;
            })),
            "AS name reference out of range");
  EXPECT_EQ(snapshot_rejection(mutated([&](Snapshot& s) {
              s.endpoints.front().operator_ref = past_end;
            })),
            "endpoint operator reference out of range");
  // kNoRef is the one out-of-table value an operator reference may hold.
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              s.endpoints.front().operator_ref = kNoRef;
            })),
            "");
}

TEST_F(ValidationTest, RecordsOutOfOrderAreRejected) {
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              std::swap(s.countries[0], s.countries[1]);
            })),
            "country records not sorted by id");
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              std::swap(s.ases[0], s.ases[1]);
            })),
            "AS records not sorted by ASN");
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              std::swap(s.prefixes[0], s.prefixes[1]);
            })),
            "prefix records not sorted");
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              std::swap(s.endpoints[0], s.endpoints[1]);
            })),
            "endpoint records not sorted by address");
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              auto& entries = s.mappings.front().entries;
              std::swap(entries[0], entries[1]);
            })),
            "mapping entries not sorted by prefix");
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              std::swap(s.mappings[0], s.mappings[1]);
            })),
            "service mappings not sorted by id");
  // Duplicates break the strict order too.
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              s.ases.insert(s.ases.begin(), s.ases.front());
            })),
            "AS records not sorted by ASN");
}

TEST_F(ValidationTest, PrefixLengthsOver32AreRejected) {
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              s.prefixes.front().length = 33;
            })),
            "prefix length out of range");
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              s.mappings.front().entries.front().prefix_length = 33;
            })),
            "mapping prefix length out of range");
}

TEST_F(ValidationTest, OverlappingPrefixesAreRejected) {
  // A more-specific of the first prefix sorts right after it and lies
  // inside it: ordered, but not disjoint.
  EXPECT_EQ(snapshot_rejection(mutated([](Snapshot& s) {
              PrefixRecord inner = s.prefixes.front();
              inner.length += 1;
              s.prefixes.insert(s.prefixes.begin() + 1, inner);
            })),
            "prefix records overlap");
}

TEST_F(ValidationTest, SectionCountAndSizeDisagreementIsRejected) {
  const std::pair<SectionId, const char*> sections[] = {
      {SectionId::kStrings, "string table"},
      {SectionId::kCountries, "country section"},
      {SectionId::kAsRecords, "AS section"},
      {SectionId::kPrefixes, "prefix section"},
      {SectionId::kEndpoints, "endpoint section"},
      {SectionId::kMappings, "mapping section"},
      {SectionId::kLinks, "link section"},
  };
  for (const auto& [id, what] : sections) {
    SCOPED_TRACE(what);
    const std::size_t at = section_offset(*bytes_, id);
    const std::uint32_t count = load_u32(*bytes_, at);
    ASSERT_GT(count, 0u);

    std::string more = *bytes_;
    store_u32(more, at, count + 1);
    reseal(more);
    EXPECT_EQ(snapshot_rejection(more), std::string(what) + " truncated");

    std::string fewer = *bytes_;
    store_u32(fewer, at, count - 1);
    reseal(fewer);
    EXPECT_EQ(snapshot_rejection(fewer),
              std::string(what) + " has trailing bytes");

    // A count whose record bytes overflow 32 bits must not wrap around.
    std::string huge = *bytes_;
    store_u32(huge, at, 0xffffffffu);
    reseal(huge);
    EXPECT_EQ(snapshot_rejection(huge), std::string(what) + " truncated");
  }
}

// ---- `.itmsd` op checks ----

// Tail layout used below (delta.h): five u64 header words, the strings
// flag, then the keyed sections (country, AS, prefix, endpoint, mapping),
// each `count u32` + ops, then the links flag.
constexpr std::size_t kDeltaTail = kHeaderBytes;
constexpr std::size_t kStringsFlag = kDeltaTail + 40;
constexpr std::size_t kCountryOps = kStringsFlag + 1;

TEST_F(ValidationTest, DeltaUnknownOpCodeIsRejected) {
  // Dropping the last country yields exactly one country op.
  const std::string fewer =
      mutated([](Snapshot& s) { s.countries.pop_back(); });
  std::string delta = diff(*bytes_, fewer);
  ASSERT_EQ(load_u32(delta, kCountryOps), 1u);
  delta[kCountryOps + 4] = 9;
  reseal(delta);
  EXPECT_EQ(delta_rejection(*bytes_, delta),
            "country ops contain an unknown op code");
}

TEST_F(ValidationTest, DeltaOpsOutOfOrderAreRejected) {
  // Two AS removals (op u8 + key u32 each); swapping their keys keeps
  // both valid on their own but breaks the ascending-key rule.
  const std::string fewer = mutated(
      [](Snapshot& s) { s.ases.erase(s.ases.begin(), s.ases.begin() + 2); });
  std::string delta = diff(*bytes_, fewer);
  const std::size_t as_ops = kCountryOps + 4;  // no country ops
  ASSERT_EQ(load_u32(delta, kCountryOps), 0u);
  ASSERT_EQ(load_u32(delta, as_ops), 2u);
  const std::uint32_t first = load_u32(delta, as_ops + 5);
  const std::uint32_t second = load_u32(delta, as_ops + 10);
  store_u32(delta, as_ops + 5, second);
  store_u32(delta, as_ops + 10, first);
  reseal(delta);
  EXPECT_EQ(delta_rejection(*bytes_, delta), "AS ops not sorted by key");
}

TEST_F(ValidationTest, DeltaAddOnExistingKeyIsRejected) {
  const std::string fewer =
      mutated([](Snapshot& s) { s.countries.pop_back(); });
  // "add the last country", replayed against a base that already has it.
  const std::string delta = rebase(diff(fewer, *bytes_), *bytes_);
  EXPECT_EQ(delta_rejection(*bytes_, delta),
            "country add op targets an existing key");
}

TEST_F(ValidationTest, DeltaRemoveOrReplaceOnMissingKeyIsRejected) {
  const std::string no_endpoint =
      mutated([](Snapshot& s) { s.endpoints.pop_back(); });
  // "remove the last endpoint", replayed where it is already gone.
  EXPECT_EQ(delta_rejection(no_endpoint,
                            rebase(diff(*bytes_, no_endpoint), no_endpoint)),
            "endpoint remove op targets a missing key");

  const std::string no_prefix =
      mutated([](Snapshot& s) { s.prefixes.pop_back(); });
  const std::string edited = mutated(
      [](Snapshot& s) { s.prefixes.back().origin_asn = kNoRef - 1; });
  // "replace the last prefix", replayed where that prefix is gone.
  EXPECT_EQ(delta_rejection(no_prefix,
                            rebase(diff(*bytes_, edited), no_prefix)),
            "prefix replace op targets a missing key");
}

TEST_F(ValidationTest, DeltaBadReplacementFlagsAreRejected) {
  const std::string empty = diff(*bytes_, *bytes_);
  std::string strings = empty;
  strings[kStringsFlag] = 2;
  reseal(strings);
  EXPECT_EQ(delta_rejection(*bytes_, strings), "bad string replacement flag");

  // Links flag: after the strings flag and five empty op lists.
  std::string links = empty;
  const std::size_t links_flag = kCountryOps + 5 * 4;
  ASSERT_EQ(links.size(), links_flag + 1);
  links[links_flag] = 2;
  reseal(links);
  EXPECT_EQ(delta_rejection(*bytes_, links), "bad link replacement flag");
}

TEST_F(ValidationTest, DeltaTrailingBytesAreRejected) {
  std::string delta = diff(*bytes_, *bytes_);
  delta.push_back('\0');
  reseal(delta);
  EXPECT_EQ(delta_rejection(*bytes_, delta), "trailing bytes after delta ops");
  std::string error;
  EXPECT_FALSE(read_delta_info(delta, &error).has_value());
  EXPECT_EQ(error, "trailing bytes after delta ops");
}

// ---- Re-sealed single-bit-flip properties ----

constexpr std::size_t kFlips = 4096;

// The protocol verbs, pointed at records the unmutated fixture holds.
std::vector<std::string> every_verb(const Snapshot& snap) {
  return {
      "stats",
      "lookup " + snap.prefixes.front().prefix().base().to_string(),
      "prefix " + snap.prefixes.front().prefix().to_string(),
      "as " + std::to_string(snap.ases[snap.ases.size() / 2].asn),
      "outage " + std::to_string(snap.ases[snap.ases.size() / 2].asn),
      "country " + std::to_string(snap.countries.front().country),
      "top-as 10",
      "top-country 5",
  };
}

bool one_line(const std::string& text) {
  return !text.empty() && text.find('\n') == std::string::npos;
}

TEST_F(ValidationTest, ResealedSnapshotBitFlipsAreRejectedOrServe) {
  const Rng picker(0x5eed'f11b);
  const std::vector<std::string> queries = every_verb(*base_);
  const std::size_t tail = bytes_->size() - kHeaderBytes;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kFlips; ++i) {
    Rng rng = picker.split(i);
    const std::size_t byte = kHeaderBytes + rng.next_below(tail);
    const auto bit = static_cast<unsigned>(rng.next_below(8));
    std::string x = *bytes_;
    x[byte] = static_cast<char>(static_cast<unsigned char>(x[byte]) ^
                                (1u << bit));
    reseal(x);

    std::string error;
    const auto snap = read_snapshot(std::string_view(x), &error);
    if (!snap) {
      EXPECT_TRUE(one_line(error)) << "byte " << byte << " bit " << bit;
      continue;
    }
    ++accepted;
    ASSERT_EQ(serialize(*snap), x) << "byte " << byte << " bit " << bit;
    const auto view = borrow_snapshot(x, &error);
    ASSERT_TRUE(view.has_value()) << error;
    const QueryEngine engine(*view, 0);
    for (const std::string& q : queries) {
      EXPECT_TRUE(one_line(engine.answer(q)))
          << q << " at byte " << byte << " bit " << bit;
    }
  }
  // Both outcomes must actually occur, or the property says nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kFlips);
}

TEST_F(ValidationTest, ResealedDeltaBitFlipsAreRejectedOrReachTarget) {
  // A multi-kind delta: meta, replace, remove, add, strings and links.
  const std::string target = mutated([](Snapshot& s) {
    s.addresses_probed += 5;
    s.ases.front().activity *= 2.0;
    s.endpoints.pop_back();
    AsRecord extra = s.ases.back();
    extra.asn += 7;
    s.ases.push_back(extra);
    s.mappings.front().entries.front().address ^= 1u;
    s.strings.push_back("bit-flip target");
    s.links.pop_back();
  });
  const std::string delta = diff(*bytes_, target);
  ASSERT_EQ(delta_rejection(*bytes_, delta), "");

  const Rng picker(0xde17'a5ed);
  const std::size_t tail = delta.size() - kHeaderBytes;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kFlips; ++i) {
    Rng rng = picker.split(i);
    const std::size_t byte = kHeaderBytes + rng.next_below(tail);
    const auto bit = static_cast<unsigned>(rng.next_below(8));
    std::string x = delta;
    x[byte] = static_cast<char>(static_cast<unsigned char>(x[byte]) ^
                                (1u << bit));
    reseal(x);

    std::string error;
    const auto applied = apply_delta(*bytes_, x, &error);
    if (!applied) {
      ++rejected;
      EXPECT_TRUE(one_line(error)) << "byte " << byte << " bit " << bit;
      continue;
    }
    const auto info = read_delta_info(x, &error);
    ASSERT_TRUE(info.has_value()) << error;
    EXPECT_EQ(snapshot_checksum(*applied), info->target_checksum)
        << "byte " << byte << " bit " << bit;
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace itm::serve
