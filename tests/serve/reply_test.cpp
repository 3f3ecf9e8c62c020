// Reply formatting: the protocol prints doubles with std::to_chars
// (serve/reply.h), and its replies are pinned to what
// `os << std::setprecision(10)` printed. The two must agree on every
// double, so this compares them over seeded values and the edge cases.
#include "serve/reply.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "net/rng.h"

namespace itm::serve {
namespace {

std::string streamed(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

std::string appended(double v) {
  std::string out;
  append(out, v);
  return out;
}

TEST(ReplyTest, EdgeDoublesPrintAsTheStreamDid) {
  using limits = std::numeric_limits<double>;
  for (const double v :
       {0.0, -0.0, limits::denorm_min(), DBL_MAX, 1e21, 1e-5, 0.1,
        limits::infinity(), -limits::infinity(), limits::quiet_NaN()}) {
    EXPECT_EQ(appended(v), streamed(v));
  }
}

// 100,000 doubles in three shapes, each from its own split stream: raw bit
// patterns (every exponent, subnormals, NaNs of either sign), activity-like
// values (a uniform scaled by 10^-12 .. 10^12) and integers up to 2^53.
TEST(ReplyTest, SeededDoublesPrintAsTheStreamDid) {
  const Rng root(20241020);
  for (std::uint64_t i = 0; i < 100000; ++i) {
    Rng rng = root.split(i);
    double v = 0;
    switch (i % 3) {
      case 0:
        v = std::bit_cast<double>(rng.next_u64());
        break;
      case 1:
        v = rng.uniform() *
            std::pow(10.0, static_cast<double>(rng.uniform_int(-12, 12)));
        break;
      default:
        v = static_cast<double>(rng.uniform_int(0, std::int64_t{1} << 53));
        break;
    }
    ASSERT_EQ(appended(v), streamed(v)) << "value " << i;
  }
}

TEST(ReplyTest, AppendsPartsInOrder) {
  std::string out = "x";
  append(out, " as=", std::uint32_t{14}, ',', std::uint64_t{UINT64_MAX},
         " at ", Ipv4Addr::from_octets(255, 0, 10, 1), ' ',
         Ipv4Prefix(Ipv4Addr::from_octets(10, 1, 2, 3), 8), ' ', 1.5);
  EXPECT_EQ(out, "x as=14,18446744073709551615 at 255.0.10.1 10.0.0.0/8 1.5");
}

}  // namespace
}  // namespace itm::serve
