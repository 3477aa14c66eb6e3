#include "sim/metrics.h"

#include <gtest/gtest.h>

namespace mtshare {
namespace {

RideRequest MakeRequest(RequestId id, Seconds release, Seconds direct,
                        bool offline = false) {
  RideRequest r;
  r.id = id;
  r.release_time = release;
  r.direct_cost = direct;
  r.deadline = release + 1.3 * direct;
  r.offline = offline;
  return r;
}

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() {
    // Three requests: one served online, one served offline, one rejected.
    metrics_.Register(MakeRequest(0, 0.0, 600.0));
    metrics_.Register(MakeRequest(1, 10.0, 300.0, /*offline=*/true));
    metrics_.Register(MakeRequest(2, 20.0, 450.0));

    RequestRecord& a = metrics_.record(0);
    a.assigned = true;
    a.completed = true;
    a.pickup_time = 120.0;  // waited 2 min
    a.dropoff_time = 120.0 + 600.0 + 60.0;  // 1 min detour
    a.response_ms = 0.4;
    a.candidates = 10;
    a.regular_fare = 20.0;
    a.shared_fare = 16.0;

    RequestRecord& b = metrics_.record(1);
    b.assigned = true;
    b.completed = true;
    b.pickup_time = 70.0;  // waited 1 min
    b.dropoff_time = 70.0 + 300.0;  // no detour
    b.regular_fare = 10.0;
    b.shared_fare = 10.0;

    RequestRecord& c = metrics_.record(2);
    c.response_ms = 0.2;
    c.candidates = 4;
  }

  Metrics metrics_;
};

TEST_F(MetricsTest, ServedCounts) {
  EXPECT_EQ(metrics_.TotalRequests(), 3);
  EXPECT_EQ(metrics_.ServedRequests(), 2);
  EXPECT_EQ(metrics_.ServedOnline(), 1);
  EXPECT_EQ(metrics_.ServedOffline(), 1);
}

TEST_F(MetricsTest, ResponseOverOnlineRequestsOnly) {
  // Online requests 0 and 2 (offline request 1's encounter is excluded).
  EXPECT_DOUBLE_EQ(metrics_.MeanResponseMs(), (0.4 + 0.2) / 2);
}

TEST_F(MetricsTest, WaitAndDetourOverServedOnly) {
  EXPECT_DOUBLE_EQ(metrics_.MeanWaitingMinutes(), (2.0 + 1.0) / 2);
  EXPECT_DOUBLE_EQ(metrics_.MeanDetourMinutes(), (1.0 + 0.0) / 2);
}

TEST_F(MetricsTest, CandidatesOverOnlineRequests) {
  EXPECT_DOUBLE_EQ(metrics_.MeanCandidates(), (10 + 4) / 2.0);
}

TEST_F(MetricsTest, FareAggregates) {
  // Mean of per-request savings: (0.2 + 0.0) / 2.
  EXPECT_DOUBLE_EQ(metrics_.MeanFareSaving(), 0.1);
}

TEST(MetricsEmptyTest, EmptyAggregatesAreZero) {
  Metrics m;
  EXPECT_EQ(m.TotalRequests(), 0);
  EXPECT_DOUBLE_EQ(m.MeanResponseMs(), 0.0);
  EXPECT_DOUBLE_EQ(m.MeanWaitingMinutes(), 0.0);
  EXPECT_DOUBLE_EQ(m.MeanFareSaving(), 0.0);
}

}  // namespace
}  // namespace mtshare
