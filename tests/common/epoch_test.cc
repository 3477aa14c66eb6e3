#include "common/epoch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace mtshare {
namespace {

TEST(EpochTest, BumpKeepsStamps) {
  uint32_t epoch = 7;
  std::vector<uint32_t> stamps = {7, 3, 0};
  NextEpoch(epoch, stamps);
  EXPECT_EQ(epoch, 8u);
  EXPECT_EQ(stamps, (std::vector<uint32_t>{7, 3, 0}));
}

TEST(EpochTest, WrapZeroesEveryStampArray) {
  // From the last counter value, a bump would make stamps left at 0 read
  // as current; the wrap resets every array and restarts at 1 instead.
  uint32_t epoch = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> a = {epoch, 5, 0};
  std::vector<uint32_t> b = {1, epoch};
  NextEpoch(epoch, a, b);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(a, (std::vector<uint32_t>{0, 0, 0}));
  EXPECT_EQ(b, (std::vector<uint32_t>{0, 0}));
  for (uint32_t stamp : a) EXPECT_NE(stamp, epoch);
  for (uint32_t stamp : b) EXPECT_NE(stamp, epoch);
}

}  // namespace
}  // namespace mtshare
