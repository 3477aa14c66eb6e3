#include "common/timer.h"

#include <gtest/gtest.h>

namespace mtshare {
namespace {

TEST(WallTimerTest, MonotoneNonNegative) {
  WallTimer timer;
  double a = timer.ElapsedSeconds();
  double b = timer.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(WallTimerTest, UnitsConsistent) {
  WallTimer timer;
  // Burn a little CPU so elapsed is strictly positive.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 1e-9;
  double s = timer.ElapsedSeconds();
  double ms = timer.ElapsedMillis();
  double us = timer.ElapsedMicros();
  EXPECT_GT(s, 0.0);
  // Later reads are larger, and the unit ratios hold approximately.
  EXPECT_GE(ms, s * 1e3);
  EXPECT_GE(us, ms * 1e3 * 0.5);
}

TEST(WallTimerTest, RestartResets) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 1e-9;
  double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), before + 1e-3);
}

}  // namespace
}  // namespace mtshare
