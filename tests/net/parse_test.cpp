#include "net/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "net/rng.h"

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

std::vector<std::string> stream_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

std::vector<std::string> view_tokens(std::string_view rest) {
  std::vector<std::string> tokens;
  for (auto t = next_token(rest); !t.empty(); t = next_token(rest)) {
    tokens.emplace_back(t);
  }
  return tokens;
}

// next_token splits exactly as `is >> token` does in the C locale, over
// seeded lines mixing the six whitespace bytes with bytes that are not
// whitespace there.
TEST(NextToken, SplitsLikeStreamExtraction) {
  const std::string alphabet(" \t\n\v\f\rab\0\xa0\x85\x1c", 12);
  const Rng root(7);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    Rng rng = root.split(i);
    std::string line(static_cast<std::size_t>(rng.uniform_int(0, 12)), ' ');
    for (char& c : line) {
      c = alphabet[static_cast<std::size_t>(rng.uniform_int(0, 11))];
    }
    ASSERT_EQ(view_tokens(line), stream_tokens(line)) << "line " << i;
  }
}

TEST(NextToken, ReturnsEmptyOnceOnlyBlanksRemain) {
  std::string_view rest = " \tlookup\v1.2.3.4\r\n";
  EXPECT_EQ(next_token(rest), "lookup");
  EXPECT_EQ(next_token(rest), "1.2.3.4");
  EXPECT_EQ(next_token(rest), "");
  EXPECT_EQ(next_token(rest), "");
}

}  // namespace
}  // namespace itm
