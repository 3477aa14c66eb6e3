#include "common/stats.h"

#include <gtest/gtest.h>

namespace mtshare {
namespace {

TEST(SummaryStatsTest, EmptyAccumulator) {
  SummaryStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Percentile(0.5), 0.0);
}

TEST(SummaryStatsTest, BasicMoments) {
  SummaryStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(SummaryStatsTest, PercentileInterpolates) {
  SummaryStats s;
  for (int i = 1; i <= 5; ++i) s.Add(i);  // 1..5
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.125), 1.5);
}

TEST(SummaryStatsTest, PercentileCacheInvalidatedByAdd) {
  SummaryStats s;
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Median(), 1.0);
  s.Add(100.0);
  EXPECT_DOUBLE_EQ(s.Median(), 50.5);
}

TEST(SummaryStatsTest, MergeCombines) {
  SummaryStats a;
  SummaryStats b;
  a.Add(1.0);
  a.Add(2.0);
  b.Add(3.0);
  b.Add(4.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.5);
}

TEST(SummaryStatsTest, ClearResets) {
  SummaryStats s;
  s.Add(5.0);
  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(HistogramTest, BucketsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bins(), 5u);
  EXPECT_DOUBLE_EQ(h.BucketLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(0), 2.0);
  EXPECT_DOUBLE_EQ(h.BucketLow(4), 8.0);
  h.Add(1.0);
  h.Add(1.9);
  h.Add(2.0);
  h.Add(9.99);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(4), 1u);
  EXPECT_EQ(h.TotalCount(), 4u);
}

TEST(HistogramTest, UnderOverflow) {
  Histogram h(0.0, 1.0, 2);
  h.Add(-0.5);
  h.Add(2.0);
  h.Add(1.0);  // hi edge counts as overflow ([lo, hi) domain)
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.TotalCount(), 3u);
}

TEST(HistogramTest, CdfReachesOneWithoutOverflow) {
  Histogram h(0.0, 4.0, 4);
  for (double v : {0.5, 1.5, 2.5, 3.5}) h.Add(v);
  std::vector<double> cdf = h.Cdf();
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf[0], 0.25);
  EXPECT_DOUBLE_EQ(cdf[3], 1.0);
}

TEST(HistogramTest, CdfIncludesUnderflowMass) {
  Histogram h(1.0, 2.0, 2);
  h.Add(0.0);   // underflow
  h.Add(1.25);  // bucket 0
  std::vector<double> cdf = h.Cdf();
  EXPECT_DOUBLE_EQ(cdf[0], 1.0);  // both samples at or below bucket 0 edge
}

}  // namespace
}  // namespace mtshare
