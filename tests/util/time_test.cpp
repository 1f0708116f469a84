#include "util/time.h"

#include <gtest/gtest.h>

#include <limits>

namespace canids::util {
namespace {

TEST(SecondsRepresentableTest, AcceptsTheClockRange) {
  EXPECT_TRUE(seconds_representable(0.0));
  EXPECT_TRUE(seconds_representable(1.5));
  EXPECT_TRUE(seconds_representable(-2.0));
  EXPECT_TRUE(seconds_representable(9.2e9));
  EXPECT_EQ(from_seconds(9.2e9), 9'200'000'000'000'000'000);
}

TEST(SecondsRepresentableTest, RejectsWhatFromSecondsCannotConvert) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(seconds_representable(1e300));
  EXPECT_FALSE(seconds_representable(-1e300));
  EXPECT_FALSE(seconds_representable(9.3e9));
  EXPECT_FALSE(seconds_representable(kInf));
  EXPECT_FALSE(seconds_representable(-kInf));
  EXPECT_FALSE(
      seconds_representable(std::numeric_limits<double>::quiet_NaN()));
}

}  // namespace
}  // namespace canids::util
