// Edge cases and failure injection for the simulation stack: empty fleets,
// empty request streams, saturated fleets, zero-capacity corner cases, and
// dispatcher behavior under starvation.
#include <gtest/gtest.h>

#include "matching/no_sharing.h"
#include "matching/t_share.h"
#include "sim/engine.h"

namespace mtshare {
namespace {

RoadNetwork LineCity() {
  RoadNetwork::Builder b(10.0);
  for (int i = 0; i < 10; ++i) b.AddVertex({i * 100.0, 0.0});
  for (int i = 0; i + 1 < 10; ++i) b.AddBidirectionalEdge(i, i + 1, 100.0);
  return b.Build();
}

// Every dispatcher arms its admissible lower-bound prunes from a landmark
// graph; three grid partitions of the line give it one, on the oracle's
// hierarchy.
struct LineLandmarks {
  LineLandmarks(const RoadNetwork& net, const DistanceOracle& oracle)
      : partitioning(GridPartition(net, 3)),
        graph(net, partitioning, *oracle.ch()) {}
  MapPartitioning partitioning;
  LandmarkGraph graph;
};

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

TEST(EngineEdgeTest, EmptyRequestStream) {
  RoadNetwork net = LineCity();
  DistanceOracle oracle(net);
  std::vector<TaxiState> fleet(2);
  fleet[0].id = 0;
  fleet[0].location = 0;
  fleet[1].id = 1;
  fleet[1].location = 5;
  MatchingConfig config;
  LineLandmarks lm(net, oracle);
  NoSharingDispatcher dispatcher(net, &oracle, &fleet, config, lm.graph);
  SimulationEngine engine(net, &dispatcher, &fleet, EngineOptions{});
  Metrics m = engine.Run({});
  EXPECT_EQ(m.TotalRequests(), 0);
  EXPECT_EQ(m.ServedRequests(), 0);
  EXPECT_DOUBLE_EQ(m.total_driver_income, 0.0);
}

TEST(EngineEdgeTest, EmptyFleetRejectsEverything) {
  RoadNetwork net = LineCity();
  DistanceOracle oracle(net);
  std::vector<TaxiState> fleet;
  MatchingConfig config;
  LineLandmarks lm(net, oracle);
  TShareDispatcher dispatcher(net, &oracle, &fleet, config, lm.graph);
  SimulationEngine engine(net, &dispatcher, &fleet, EngineOptions{});
  Metrics m = engine.Run({MakeRequest(0, 2, 5, 0.0, 30.0, 2.0)});
  EXPECT_EQ(m.ServedRequests(), 0);
  EXPECT_FALSE(m.records()[0].assigned);
}

TEST(EngineEdgeTest, SaturatedFleetRejectsOverflow) {
  RoadNetwork net = LineCity();
  DistanceOracle oracle(net);
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 1;
  fleet[0].location = 0;
  MatchingConfig config;
  LineLandmarks lm(net, oracle);
  TShareDispatcher dispatcher(net, &oracle, &fleet, config, lm.graph);
  SimulationEngine engine(net, &dispatcher, &fleet, EngineOptions{});
  // Five simultaneous tight requests; a 1-seat taxi can serve at most a
  // couple sequentially within deadlines.
  std::vector<RideRequest> reqs;
  for (int i = 0; i < 5; ++i) {
    reqs.push_back(MakeRequest(i, 1 + (i % 3), 8, double(i), 60.0, 1.3));
  }
  Metrics m = engine.Run(reqs);
  EXPECT_LE(m.ServedRequests(), 2);
  int assigned = 0;
  for (const auto& rec : m.records()) assigned += rec.assigned ? 1 : 0;
  EXPECT_EQ(assigned, m.ServedRequests());  // assigned implies completed
}

TEST(EngineEdgeTest, RequestWithOriginEqualToTaxiLocationPicksUpImmediately) {
  RoadNetwork net = LineCity();
  DistanceOracle oracle(net);
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 2;
  fleet[0].location = 3;
  MatchingConfig config;
  LineLandmarks lm(net, oracle);
  NoSharingDispatcher dispatcher(net, &oracle, &fleet, config, lm.graph);
  SimulationEngine engine(net, &dispatcher, &fleet, EngineOptions{});
  Metrics m = engine.Run({MakeRequest(0, 3, 7, 5.0, 40.0, 2.0)});
  ASSERT_EQ(m.ServedRequests(), 1);
  EXPECT_DOUBLE_EQ(m.records()[0].pickup_time, 5.0);  // zero wait
  EXPECT_DOUBLE_EQ(m.records()[0].dropoff_time, 45.0);
}

TEST(EngineEdgeTest, BackToBackTripsReuseTheTaxi) {
  RoadNetwork net = LineCity();
  DistanceOracle oracle(net);
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 2;
  fleet[0].location = 0;
  MatchingConfig config;
  LineLandmarks lm(net, oracle);
  NoSharingDispatcher dispatcher(net, &oracle, &fleet, config, lm.graph);
  SimulationEngine engine(net, &dispatcher, &fleet, EngineOptions{});
  // Second trip released long after the first finishes.
  std::vector<RideRequest> reqs = {
      MakeRequest(0, 1, 4, 0.0, 30.0, 2.0),
      MakeRequest(1, 5, 8, 200.0, 30.0, 2.0),
  };
  Metrics m = engine.Run(reqs);
  EXPECT_EQ(m.ServedRequests(), 2);
  EXPECT_EQ(m.records()[1].taxi, 0);
  // The taxi idled at 4, then approached 5 (10 s away).
  EXPECT_DOUBLE_EQ(m.records()[1].pickup_time, 210.0);
}

TEST(EngineEdgeTest, MultiPassengerPartyConsumesSeats) {
  RoadNetwork net = LineCity();
  DistanceOracle oracle(net);
  std::vector<TaxiState> fleet(1);
  fleet[0].id = 0;
  fleet[0].capacity = 3;
  fleet[0].location = 0;
  MatchingConfig config;
  LineLandmarks lm(net, oracle);
  TShareDispatcher dispatcher(net, &oracle, &fleet, config, lm.graph);
  SimulationEngine engine(net, &dispatcher, &fleet, EngineOptions{});
  RideRequest party = MakeRequest(0, 1, 8, 0.0, 70.0, 2.0);
  party.passengers = 3;  // fills the taxi
  std::vector<RideRequest> reqs = {party,
                                   MakeRequest(1, 2, 7, 5.0, 50.0, 1.2)};
  Metrics m = engine.Run(reqs);
  EXPECT_TRUE(m.records()[0].completed);
  EXPECT_FALSE(m.records()[1].completed);  // no seat left, deadline tight
}

TEST(EngineEdgeTest, OfflineOnlyWorkloadWithParkedFleetServesNothing) {
  RoadNetwork net = LineCity();
  DistanceOracle oracle(net);
  std::vector<TaxiState> fleet(2);
  fleet[0].id = 0;
  fleet[0].location = 0;
  fleet[1].id = 1;
  fleet[1].location = 9;
  MatchingConfig config;
  LineLandmarks lm(net, oracle);
  TShareDispatcher dispatcher(net, &oracle, &fleet, config, lm.graph);
  SimulationEngine engine(net, &dispatcher, &fleet, EngineOptions{});
  // Only offline requests: parked taxis never move, so nobody is met.
  std::vector<RideRequest> reqs = {
      MakeRequest(0, 4, 8, 0.0, 40.0, 2.0, /*offline=*/true),
      MakeRequest(1, 5, 2, 10.0, 30.0, 2.0, /*offline=*/true)};
  Metrics m = engine.Run(reqs);
  EXPECT_EQ(m.ServedRequests(), 0);
}

TEST(EngineEdgeTest, DuplicateSimultaneousRequestsBothConsidered) {
  RoadNetwork net = LineCity();
  DistanceOracle oracle(net);
  std::vector<TaxiState> fleet(2);
  fleet[0].id = 0;
  fleet[0].capacity = 2;
  fleet[0].location = 0;
  fleet[1].id = 1;
  fleet[1].capacity = 2;
  fleet[1].location = 9;
  MatchingConfig config;
  LineLandmarks lm(net, oracle);
  TShareDispatcher dispatcher(net, &oracle, &fleet, config, lm.graph);
  SimulationEngine engine(net, &dispatcher, &fleet, EngineOptions{});
  std::vector<RideRequest> reqs = {MakeRequest(0, 4, 6, 0.0, 20.0, 4.0),
                                   MakeRequest(1, 4, 6, 0.0, 20.0, 4.0)};
  Metrics m = engine.Run(reqs);
  EXPECT_EQ(m.ServedRequests(), 2);
}

}  // namespace
}  // namespace mtshare
