#include "sim/engine.h"

#include <gtest/gtest.h>

#include "matching/no_sharing.h"
#include "matching/t_share.h"
#include "sim/taxi.h"

namespace mtshare {
namespace {

// Line city: vertices 0..9 on a row, 100 m apart, 10 m/s -> 10 s per hop.
RoadNetwork LineCity() {
  RoadNetwork::Builder b(10.0);
  for (int i = 0; i < 10; ++i) b.AddVertex({i * 100.0, 0.0});
  for (int i = 0; i + 1 < 10; ++i) b.AddBidirectionalEdge(i, i + 1, 100.0);
  return b.Build();
}

RideRequest MakeRequest(RequestId id, VertexId o, VertexId d, Seconds t,
                        Seconds direct, double rho, bool offline = false) {
  RideRequest r;
  r.id = id;
  r.origin = o;
  r.destination = d;
  r.release_time = t;
  r.direct_cost = direct;
  r.deadline = t + rho * direct;
  r.offline = offline;
  return r;
}

class EngineLineTest : public ::testing::Test {
 protected:
  // Every dispatcher arms its admissible lower-bound prunes from a landmark
  // graph; three grid partitions of the line give it one, on the oracle's
  // hierarchy.
  EngineLineTest()
      : net_(LineCity()),
        oracle_(net_),
        partitioning_(GridPartition(net_, 3)),
        landmarks_(net_, partitioning_, *oracle_.ch()) {}

  Metrics RunWith(Dispatcher* d, std::vector<TaxiState>* fleet,
                  const std::vector<RideRequest>& requests,
                  bool serve_offline = true) {
    EngineOptions opts;
    opts.serve_offline = serve_offline;
    SimulationEngine engine(net_, d, fleet, opts);
    return engine.Run(requests);
  }

  RoadNetwork net_;
  DistanceOracle oracle_;
  MapPartitioning partitioning_;
  LandmarkGraph landmarks_;
  MatchingConfig config_;
};

TEST_F(EngineLineTest, SingleRequestExactTimings) {
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 3;
  fleet[0].location = 0;
  NoSharingDispatcher dispatcher(net_, &oracle_, &fleet, config_, landmarks_);

  // o=2 (20 s away), d=5 (30 s ride), released at t=0, rho=2.
  std::vector<RideRequest> reqs = {MakeRequest(0, 2, 5, 0.0, 30.0, 2.0)};
  Metrics m = RunWith(&dispatcher, &fleet, reqs);

  EXPECT_EQ(m.ServedRequests(), 1);
  const RequestRecord& rec = m.records()[0];
  EXPECT_TRUE(rec.completed);
  EXPECT_DOUBLE_EQ(rec.pickup_time, 20.0);
  EXPECT_DOUBLE_EQ(rec.dropoff_time, 50.0);
  EXPECT_DOUBLE_EQ(m.MeanWaitingMinutes(), 20.0 / 60.0);
  EXPECT_DOUBLE_EQ(m.MeanDetourMinutes(), 0.0);
  // Taxi ended at the dropoff vertex, idle.
  EXPECT_EQ(fleet[0].location, 5);
  EXPECT_TRUE(fleet[0].Idle());
  // Odometer: 20 m approach is empty; 300 m occupied.
  EXPECT_DOUBLE_EQ(fleet[0].driven_meters, 500.0);
  EXPECT_DOUBLE_EQ(fleet[0].occupied_meters, 300.0);
}

TEST_F(EngineLineTest, UnreachableDeadlineGoesUnserved) {
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 3;
  fleet[0].location = 9;  // 70 s from origin 2
  NoSharingDispatcher dispatcher(net_, &oracle_, &fleet, config_, landmarks_);
  // Pickup deadline = 0 + 1.5*30 - 30 = 15 s: unreachable.
  std::vector<RideRequest> reqs = {MakeRequest(0, 2, 5, 0.0, 30.0, 1.5)};
  Metrics m = RunWith(&dispatcher, &fleet, reqs);
  EXPECT_EQ(m.ServedRequests(), 0);
  EXPECT_FALSE(m.records()[0].assigned);
  EXPECT_TRUE(fleet[0].Idle());
}

TEST_F(EngineLineTest, SharedRideTimingsAndFares) {
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 3;
  fleet[0].location = 0;
  TShareDispatcher dispatcher(net_, &oracle_, &fleet, config_, landmarks_);

  // r0: 1 -> 8 released t=0 (direct 70 s), generous rho.
  // r1: 2 -> 7 released t=5 (direct 50 s): perfectly en-route.
  std::vector<RideRequest> reqs = {MakeRequest(0, 1, 8, 0.0, 70.0, 2.0),
                                   MakeRequest(1, 2, 7, 5.0, 50.0, 2.0)};
  Metrics m = RunWith(&dispatcher, &fleet, reqs);
  ASSERT_EQ(m.ServedRequests(), 2);
  const RequestRecord& r0 = m.records()[0];
  const RequestRecord& r1 = m.records()[1];
  // r1 rides inside r0's trip: pickup after r0's, dropoff before r0's.
  EXPECT_GT(r1.pickup_time, r0.pickup_time);
  EXPECT_LT(r1.dropoff_time, r0.dropoff_time);
  // Shared episode: both paid less than regular (positive benefit).
  EXPECT_LE(r0.shared_fare, r0.regular_fare);
  EXPECT_LE(r1.shared_fare, r1.regular_fare);
  EXPECT_GT(r0.regular_fare, 0.0);
  // Driver collected exactly what passengers paid (conservation).
  EXPECT_NEAR(fleet[0].income, r0.shared_fare + r1.shared_fare, 1e-9);
}

TEST_F(EngineLineTest, OfflineRequestServedOnEncounter) {
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 3;
  fleet[0].location = 0;
  TShareDispatcher dispatcher(net_, &oracle_, &fleet, config_, landmarks_);

  // Online trip 0 -> 9 drives past vertex 4 where an offline rider waits.
  std::vector<RideRequest> reqs = {
      MakeRequest(0, 0, 9, 0.0, 90.0, 2.0),
      MakeRequest(1, 4, 8, 10.0, 40.0, 2.5, /*offline=*/true)};
  Metrics m = RunWith(&dispatcher, &fleet, reqs);
  EXPECT_EQ(m.ServedRequests(), 2);
  EXPECT_EQ(m.ServedOffline(), 1);
  const RequestRecord& off = m.records()[1];
  EXPECT_TRUE(off.completed);
  // Encountered at vertex 4, which the taxi reaches at t=40.
  EXPECT_DOUBLE_EQ(off.pickup_time, 40.0);
}

TEST_F(EngineLineTest, OfflineIgnoredWhenDisabled) {
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 3;
  fleet[0].location = 0;
  TShareDispatcher dispatcher(net_, &oracle_, &fleet, config_, landmarks_);
  std::vector<RideRequest> reqs = {
      MakeRequest(0, 0, 9, 0.0, 90.0, 2.0),
      MakeRequest(1, 4, 8, 10.0, 40.0, 2.5, /*offline=*/true)};
  Metrics m = RunWith(&dispatcher, &fleet, reqs, /*serve_offline=*/false);
  EXPECT_EQ(m.ServedOffline(), 0);
  EXPECT_EQ(m.ServedOnline(), 1);
}

TEST_F(EngineLineTest, OfflineExpiresWhenTaxiTooLate) {
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 3;
  fleet[0].location = 0;
  TShareDispatcher dispatcher(net_, &oracle_, &fleet, config_, landmarks_);
  // Offline rider at vertex 8 with a pickup deadline of ~5 s: the passing
  // taxi arrives at t=80, long after expiry.
  std::vector<RideRequest> reqs = {
      MakeRequest(0, 0, 9, 0.0, 90.0, 2.0),
      MakeRequest(1, 8, 9, 0.0, 10.0, 1.5, /*offline=*/true)};
  Metrics m = RunWith(&dispatcher, &fleet, reqs);
  EXPECT_FALSE(m.records()[1].completed);
}

TEST_F(EngineLineTest, NoSharingNeverServesOffline) {
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 3;
  fleet[0].location = 0;
  NoSharingDispatcher dispatcher(net_, &oracle_, &fleet, config_, landmarks_);
  std::vector<RideRequest> reqs = {
      MakeRequest(0, 0, 9, 0.0, 90.0, 2.0),
      MakeRequest(1, 4, 8, 10.0, 40.0, 2.5, /*offline=*/true)};
  Metrics m = RunWith(&dispatcher, &fleet, reqs);
  EXPECT_EQ(m.ServedOffline(), 0);
}

TEST_F(EngineLineTest, CapacityLimitsConcurrentRiders) {
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 1;  // single seat
  fleet[0].location = 0;
  TShareDispatcher dispatcher(net_, &oracle_, &fleet, config_, landmarks_);
  // Two overlapping trips: the second cannot share a 1-seat taxi and its
  // tight deadline forbids serving it after the first.
  std::vector<RideRequest> reqs = {MakeRequest(0, 1, 8, 0.0, 70.0, 1.5),
                                   MakeRequest(1, 2, 7, 5.0, 50.0, 1.2)};
  Metrics m = RunWith(&dispatcher, &fleet, reqs);
  EXPECT_EQ(m.ServedRequests(), 1);
}

TEST(ApplyPlanTest, InstallsScheduleAndRoute) {
  RoadNetwork net = LineCity();
  TaxiState taxi;
  taxi.id = 0;
  taxi.location = 0;
  RideRequest r = MakeRequest(0, 1, 3, 0.0, 20.0, 2.0);
  Schedule s = Schedule::WithInsertion(Schedule(), r, 0, 0);
  ApplyPlan(&taxi, net, s, {0, 1, 2, 3}, {10.0, 30.0}, 0.0);
  EXPECT_EQ(taxi.schedule.size(), 2u);
  EXPECT_EQ(taxi.route.size(), 4u);
  EXPECT_EQ(taxi.route_pos, 0u);
  EXPECT_DOUBLE_EQ(taxi.route.time(3), 30.0);
  EXPECT_TRUE(taxi.HasRoute());
}

}  // namespace
}  // namespace mtshare
