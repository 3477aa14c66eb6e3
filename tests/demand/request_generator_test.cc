#include "demand/request_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/mtshare_system.h"
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

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameTrip(const Trip& a, const Trip& b) {
  return SameBits(a.release_time, b.release_time) && a.origin == b.origin &&
         a.destination == b.destination;
}

bool SameRequest(const RideRequest& a, const RideRequest& b) {
  return a.id == b.id && SameBits(a.release_time, b.release_time) &&
         a.origin == b.origin && a.destination == b.destination &&
         SameBits(a.deadline, b.deadline) &&
         SameBits(a.direct_cost, b.direct_cost) &&
         a.passengers == b.passengers && a.offline == b.offline;
}

// CreateScenarioSystem (core/mtshare_system.h) draws the history once and
// prices the requests on the system's own oracle. It must build what its
// callers used to build by hand: the history drawn on Rng(seed), Create on
// it, and MakeScenario on an oracle of the same settings. MakeScenario's
// history is that draw too, which bench_scale and mtshare_serve rely on
// when they draw the history alone.
TEST_F(RequestGeneratorTest, CreateScenarioSystemMatchesHandBuiltPattern) {
  for (OracleBackend backend : {OracleBackend::kExact, OracleBackend::kCh}) {
    for (uint64_t seed : {29u, 1001u}) {
      SCOPED_TRACE(std::string(OracleBackendName(backend)) + " seed " +
                   std::to_string(seed));
      ScenarioOptions sopt;
      sopt.num_requests = 120;
      sopt.num_historical_trips = 1500;
      sopt.offline_fraction = 0.3;
      sopt.seed = seed;
      SystemConfig config;
      config.kappa = 12;
      config.kt = 4;
      config.oracle.backend = backend;
      auto [system, scenario] =
          CreateScenarioSystem(net_, *demand_, sopt, config).value();

      Rng rng(seed);
      const std::vector<Trip> history =
          GenerateHistoricalTrips(*demand_, sopt.num_historical_trips, rng);
      EXPECT_TRUE(std::equal(history.begin(), history.end(),
                             scenario.historical_trips.begin(),
                             scenario.historical_trips.end(), SameTrip));
      DistanceOracle scratch(net_, config.oracle);
      const Scenario made = MakeScenario(net_, *demand_, scratch, sopt);
      EXPECT_TRUE(std::equal(history.begin(), history.end(),
                             made.historical_trips.begin(),
                             made.historical_trips.end(), SameTrip));
      EXPECT_TRUE(std::equal(made.requests.begin(), made.requests.end(),
                             scenario.requests.begin(),
                             scenario.requests.end(), SameRequest));
      auto reference =
          MTShareSystem::Create(net_, OdPairsOf(history), config).value();
      EXPECT_EQ(system->partitioning().vertex_partition,
                reference->partitioning().vertex_partition);
      EXPECT_EQ(system->partitioning().landmarks,
                reference->partitioning().landmarks);
    }
  }
}

TEST(ScenarioOptionsTest, ValidateRejectsWhatDrawWindowRequestsAssumes) {
  EXPECT_TRUE(ScenarioOptions{}.Validate().ok());
  const auto rejects = [](auto mutate) {
    ScenarioOptions sopt;
    mutate(sopt);
    const Status status = sopt.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    return status.ToString();
  };
  EXPECT_NE(rejects([](ScenarioOptions& o) { o.offline_fraction = 1.5; })
                .find("offline"),
            std::string::npos);
  rejects([](ScenarioOptions& o) { o.offline_fraction = -0.5; });
  rejects([](ScenarioOptions& o) { o.offline_fraction = std::nan(""); });
  rejects([](ScenarioOptions& o) { o.rho = 1.0; });
  rejects([](ScenarioOptions& o) { o.rho = std::nan(""); });
  rejects([](ScenarioOptions& o) { o.t_end = o.t_begin; });
  rejects([](ScenarioOptions& o) { o.num_requests = -1; });
  rejects([](ScenarioOptions& o) { o.num_historical_trips = -1; });
  // The edges of the ranges are valid.
  ScenarioOptions edges;
  edges.offline_fraction = 1.0;
  edges.num_requests = 0;
  edges.num_historical_trips = 0;
  EXPECT_TRUE(edges.Validate().ok());
  edges.offline_fraction = 0.0;
  EXPECT_TRUE(edges.Validate().ok());
}

TEST_F(RequestGeneratorTest, CreateScenarioSystemRejectsBadOptionsFirst) {
  // Bad scenario options come back as InvalidArgument instead of dying in
  // DrawWindowRequests, and before the system is built: with a bad config
  // too, the options' error is the one reported.
  for (double offline : {1.5, -0.5}) {
    ScenarioOptions sopt;
    sopt.offline_fraction = offline;
    SystemConfig config;
    config.kappa = 0;
    Result<ScenarioSystem> built =
        CreateScenarioSystem(net_, *demand_, sopt, config);
    ASSERT_FALSE(built.ok()) << offline;
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(built.status().ToString().find("offline"), std::string::npos)
        << built.status().ToString();
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
