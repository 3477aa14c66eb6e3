// Tests of probabilistic idle cruising: the mT-Share-pro behavior that
// steers empty taxis toward offline-encounter mass (and the Fig. 16
// decorator that arms it on baselines).
#include <gtest/gtest.h>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "sim/engine.h"

namespace mtshare {
namespace {

class IdleCruisingTest : public ::testing::Test {
 protected:
  IdleCruisingTest() {
    GridCityOptions gopt;
    gopt.rows = 16;
    gopt.cols = 16;
    gopt.seed = 19;
    net_ = MakeGridCity(gopt);
    demand_ = std::make_unique<DemandModel>(net_, DemandModelOptions{});
    ScenarioOptions sopt;
    sopt.num_requests = 60;
    sopt.num_historical_trips = 3000;
    sopt.offline_fraction = 0.5;
    SystemConfig cfg;
    cfg.kappa = 16;
    cfg.kt = 4;
    ScenarioSystem built =
        CreateScenarioSystem(net_, *demand_, sopt, cfg).value();
    system_ = std::move(built.system);
    scenario_ = std::move(built.scenario);
  }

  RoadNetwork net_;
  std::unique_ptr<DemandModel> demand_;
  Scenario scenario_;
  std::unique_ptr<MTShareSystem> system_;
};

TEST_F(IdleCruisingTest, ProDispatcherOffersCruises) {
  auto fleet = MakeFleet(net_, 4, 3, 7, 0.0);
  auto pro = system_->MakeDispatcher(SchemeKind::kMtSharePro, &fleet);
  RoutePlanner::PlannedRoute cruise = pro->PlanIdleCruise(0, 100.0);
  ASSERT_TRUE(cruise.valid);
  EXPECT_GT(cruise.path.vertices.size(), 1u);
  EXPECT_EQ(cruise.path.front(), fleet[0].location);
}

TEST_F(IdleCruisingTest, BasicDispatcherNeverCruises) {
  auto fleet = MakeFleet(net_, 4, 3, 7, 0.0);
  auto basic = system_->MakeDispatcher(SchemeKind::kMtShare, &fleet);
  EXPECT_FALSE(basic->PlanIdleCruise(0, 100.0).valid);
  auto tshare = system_->MakeDispatcher(SchemeKind::kTShare, &fleet);
  EXPECT_FALSE(tshare->PlanIdleCruise(0, 100.0).valid);
}

TEST_F(IdleCruisingTest, CruiseOffersAreRateLimited) {
  auto fleet = MakeFleet(net_, 4, 3, 7, 0.0);
  auto pro = system_->MakeDispatcher(SchemeKind::kMtSharePro, &fleet);
  ASSERT_TRUE(pro->PlanIdleCruise(0, 100.0).valid);
  // Immediately after, the same taxi is refused; another taxi is not.
  EXPECT_FALSE(pro->PlanIdleCruise(0, 110.0).valid);
  EXPECT_TRUE(pro->PlanIdleCruise(1, 110.0).valid);
  // After the cooldown the taxi may cruise again.
  EXPECT_TRUE(pro->PlanIdleCruise(0, 161.0).valid);
}

TEST_F(IdleCruisingTest, EngineMovesIdleProTaxis) {
  auto fleet = MakeFleet(net_, 6, 3, 7, 0.0);
  std::vector<VertexId> start_locations;
  for (const auto& t : fleet) start_locations.push_back(t.location);

  auto pro = system_->MakeDispatcher(SchemeKind::kMtSharePro, &fleet);
  EngineOptions eopts;
  SimulationEngine engine(net_, pro.get(), &fleet, eopts);
  // Offline-only stream: no dispatches, movement can only come from
  // cruising.
  std::vector<RideRequest> requests;
  for (RequestId i = 0; i < 5; ++i) {
    RideRequest r = scenario_.requests[i];
    r.id = i;
    r.offline = true;
    r.release_time = 60.0 * double(i + 1);
    r.deadline = r.release_time + 1.3 * r.direct_cost;
    requests.push_back(r);
  }
  engine.Run(requests);
  double total_driven = 0.0;
  for (const auto& t : fleet) total_driven += t.driven_meters;
  EXPECT_GT(total_driven, 0.0);  // pro taxis cruised
}

TEST_F(IdleCruisingTest, EngineKeepsBasicTaxisParked) {
  auto fleet = MakeFleet(net_, 6, 3, 7, 0.0);
  auto basic = system_->MakeDispatcher(SchemeKind::kMtShare, &fleet);
  EngineOptions eopts;
  SimulationEngine engine(net_, basic.get(), &fleet, eopts);
  std::vector<RideRequest> requests;
  for (RequestId i = 0; i < 5; ++i) {
    RideRequest r = scenario_.requests[i];
    r.id = i;
    r.offline = true;
    r.release_time = 60.0 * double(i + 1);
    requests.push_back(r);
  }
  engine.Run(requests);
  for (const auto& t : fleet) {
    EXPECT_DOUBLE_EQ(t.driven_meters, 0.0);
  }
}

TEST_F(IdleCruisingTest, DecoratedBaselineCruises) {
  auto fleet = MakeFleet(net_, 4, 3, 7, 0.0);
  RoutePlanner planner(net_, system_->partitioning(), system_->landmarks(),
                       &system_->transitions(), &system_->oracle(),
                       RoutePlannerOptions{});
  auto tshare = system_->MakeDispatcher(SchemeKind::kTShare, &fleet);
  tshare->EnableIdleCruising(&system_->partitioning(), &planner);
  EXPECT_TRUE(tshare->PlanIdleCruise(0, 100.0).valid);
}

TEST_F(IdleCruisingTest, CruisingTaxiRemainsDispatchable) {
  auto fleet = MakeFleet(net_, 3, 3, 7, 0.0);
  auto pro = system_->MakeDispatcher(SchemeKind::kMtSharePro, &fleet);
  EngineOptions eopts;
  SimulationEngine engine(net_, pro.get(), &fleet, eopts);
  // One offline request early (starts cruising), one ONLINE request later:
  // a cruising taxi must still take the dispatch.
  std::vector<RideRequest> requests;
  {
    RideRequest r = scenario_.requests[0];
    r.id = 0;
    r.offline = true;
    r.release_time = 30.0;
    requests.push_back(r);
    RideRequest q = scenario_.requests[1];
    q.id = 1;
    q.offline = false;
    q.release_time = 400.0;
    q.deadline = q.release_time + 2.5 * q.direct_cost;
    requests.push_back(q);
  }
  Metrics m = engine.Run(requests);
  EXPECT_TRUE(m.records()[1].completed);
}

}  // namespace
}  // namespace mtshare
