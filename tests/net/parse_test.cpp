#include "net/parse.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace itm {
namespace {

TEST(ParseU64, AcceptsDigitsUpToTheMax) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64("255", 255), 255u);
}

TEST(ParseU64, RejectsEverythingElse) {
  for (const char* bad : {"", "12x", "x12", "-1", "+1", " 1", "1 ", "1.0",
                          "18446744073709551616"}) {
    EXPECT_EQ(parse_u64(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_u64("256", 255), std::nullopt);
}

// The thread ceiling is checked by its parse result: no thread starts.
TEST(ParseU64, ThreadCeilingIsInclusive) {
  EXPECT_EQ(parse_u64("1024", kMaxThreads), 1024u);
  EXPECT_EQ(parse_u64("1025", kMaxThreads), std::nullopt);
}

}  // namespace
}  // namespace itm
