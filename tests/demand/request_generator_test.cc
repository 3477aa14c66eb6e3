#include "demand/request_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/graph_generators.h"

namespace mtshare {
namespace {

class RequestGeneratorTest : public ::testing::Test {
 protected:
  RequestGeneratorTest() {
    GridCityOptions gopt;
    gopt.rows = 14;
    gopt.cols = 14;
    gopt.seed = 37;
    net_ = MakeGridCity(gopt);
    oracle_ = std::make_unique<DistanceOracle>(net_);
    demand_ = std::make_unique<DemandModel>(net_, DemandModelOptions{});
  }

  Scenario Make(ScenarioOptions opt) {
    return MakeScenario(net_, *demand_, *oracle_, opt);
  }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
  std::unique_ptr<DemandModel> demand_;
};

TEST_F(RequestGeneratorTest, RequestsSortedWithUniqueIds) {
  ScenarioOptions opt;
  opt.num_requests = 200;
  opt.num_historical_trips = 500;
  Scenario s = Make(opt);
  EXPECT_GE(s.requests.size(), 190u);  // a few drops allowed
  EXPECT_TRUE(std::is_sorted(s.requests.begin(), s.requests.end(),
                             [](const RideRequest& a, const RideRequest& b) {
                               return a.release_time < b.release_time;
                             }));
  for (size_t i = 0; i < s.requests.size(); ++i) {
    EXPECT_EQ(s.requests[i].id, RequestId(i));
  }
}

TEST_F(RequestGeneratorTest, HistoricalTripsNeedNoOracle) {
  // bench_scale and mtshare_serve draw the history without MakeScenario's
  // oracle; it must be MakeScenario's history for the same seed.
  for (uint64_t seed : {29u, 1001u}) {
    ScenarioOptions opt;
    opt.num_requests = 0;
    opt.num_historical_trips = 700;
    opt.seed = seed;
    Rng rng(seed);
    const std::vector<OdPair> drawn = OdPairsOf(
        GenerateHistoricalTrips(*demand_, opt.num_historical_trips, rng));
    EXPECT_EQ(drawn.size(), 700u);
    EXPECT_EQ(drawn, Make(opt).HistoricalOdPairs()) << "seed " << seed;
  }
}

TEST_F(RequestGeneratorTest, DeadlineFollowsRho) {
  ScenarioOptions opt;
  opt.num_requests = 100;
  opt.num_historical_trips = 100;
  opt.rho = 1.5;
  Scenario s = Make(opt);
  for (const RideRequest& r : s.requests) {
    EXPECT_NEAR(r.deadline, r.release_time + 1.5 * r.direct_cost, 1e-9);
    EXPECT_GT(r.direct_cost, 0.0);
    EXPECT_LT(r.direct_cost, kInfiniteCost);
  }
}

TEST_F(RequestGeneratorTest, WaitBudgetConsistent) {
  ScenarioOptions opt;
  opt.num_requests = 50;
  opt.num_historical_trips = 100;
  opt.rho = 1.3;
  Scenario s = Make(opt);
  for (const RideRequest& r : s.requests) {
    EXPECT_NEAR(r.WaitBudget(), 0.3 * r.direct_cost, 1e-9);
    EXPECT_NEAR(r.PickupDeadline(), r.release_time + 0.3 * r.direct_cost,
                1e-9);
  }
}

TEST_F(RequestGeneratorTest, OfflineFractionApproximatelyHonored) {
  ScenarioOptions opt;
  opt.num_requests = 600;
  opt.num_historical_trips = 100;
  opt.offline_fraction = 1.0 / 3.0;
  Scenario s = Make(opt);
  double frac = double(s.CountOffline()) / s.requests.size();
  EXPECT_NEAR(frac, 1.0 / 3.0, 0.06);
}

TEST_F(RequestGeneratorTest, ZeroOfflineFraction) {
  ScenarioOptions opt;
  opt.num_requests = 100;
  opt.num_historical_trips = 50;
  opt.offline_fraction = 0.0;
  Scenario s = Make(opt);
  EXPECT_EQ(s.CountOffline(), 0);
}

TEST_F(RequestGeneratorTest, PartySizesWithinBounds) {
  ScenarioOptions opt;
  opt.num_requests = 300;
  opt.num_historical_trips = 50;
  opt.multi_rider_fraction = 0.5;
  opt.max_party = 3;
  Scenario s = Make(opt);
  bool saw_multi = false;
  for (const RideRequest& r : s.requests) {
    EXPECT_GE(r.passengers, 1);
    EXPECT_LE(r.passengers, 3);
    saw_multi |= r.passengers > 1;
  }
  EXPECT_TRUE(saw_multi);
}

TEST_F(RequestGeneratorTest, HistoricalPairsMatchTrips) {
  ScenarioOptions opt;
  opt.num_requests = 10;
  opt.num_historical_trips = 120;
  Scenario s = Make(opt);
  EXPECT_EQ(s.historical_trips.size(), 120u);
  auto pairs = s.HistoricalOdPairs();
  ASSERT_EQ(pairs.size(), 120u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].first, s.historical_trips[i].origin);
    EXPECT_EQ(pairs[i].second, s.historical_trips[i].destination);
  }
}

TEST_F(RequestGeneratorTest, DeterministicForSeed) {
  ScenarioOptions opt;
  opt.num_requests = 80;
  opt.num_historical_trips = 80;
  opt.seed = 77;
  Scenario a = Make(opt);
  Scenario b = Make(opt);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].origin, b.requests[i].origin);
    EXPECT_EQ(a.requests[i].offline, b.requests[i].offline);
  }
}

}  // namespace
}  // namespace mtshare
