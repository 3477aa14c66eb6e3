// Property tests: global invariants that must hold for every scheme on any
// workload — deadline compliance, causal ordering, odometer consistency,
// and money conservation. Parameterized over scheme x seed.
#include <gtest/gtest.h>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "matching/taxi_state.h"
#include "sim/engine.h"

namespace mtshare {
namespace {

struct PropertyCase {
  SchemeKind scheme;
  // gtest names each case after the raw bytes of its parameter. An explicit
  // zero where the compiler would pad keeps those bytes, and so the ctest
  // names, the same in every build.
  int32_t zero = 0;
  uint64_t seed;
};
static_assert(sizeof(PropertyCase) ==
              sizeof(SchemeKind) + sizeof(int32_t) + sizeof(uint64_t));

class EnginePropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(EnginePropertyTest, GlobalInvariantsHold) {
  const PropertyCase& param = GetParam();
  GridCityOptions gopt;
  gopt.rows = 16;
  gopt.cols = 16;
  gopt.seed = param.seed;
  RoadNetwork net = MakeGridCity(gopt);
  DemandModelOptions dopt;
  dopt.seed = param.seed + 1;
  DemandModel demand(net, dopt);

  ScenarioOptions sopt;
  sopt.num_requests = 180;
  sopt.num_historical_trips = 2500;
  sopt.offline_fraction = 0.25;
  sopt.seed = param.seed + 2;

  SystemConfig cfg;
  cfg.kappa = 20;
  cfg.kt = 5;
  cfg.seed = param.seed + 3;
  auto [system, scenario] =
      CreateScenarioSystem(net, demand, sopt, cfg).value();

  // Run through a hand-built engine so the fleet stays inspectable.
  auto fleet = MakeFleet(net, 24, cfg.taxi_capacity, param.seed + 4,
                         scenario.requests.empty()
                             ? 0.0
                             : scenario.requests.front().release_time);
  auto dispatcher = system->MakeDispatcher(param.scheme, &fleet);
  SimulationEngine engine(net, dispatcher.get(), &fleet, EngineOptions{});
  Metrics m = engine.Run(scenario.requests);

  // --- per-request invariants ---
  double total_shared_fares = 0.0;
  for (const RequestRecord& rec : m.records()) {
    const RideRequest& r = scenario.requests[rec.id];
    if (!rec.completed) continue;
    // The paper's time constraint: delivery before the deadline, always.
    EXPECT_LE(rec.dropoff_time, r.deadline + 1e-6)
        << SchemeName(param.scheme) << " request " << rec.id;
    // Pickup before its own deadline keeps waiting within the budget.
    EXPECT_LE(rec.pickup_time, r.PickupDeadline() + 1e-6);
    // Causality.
    EXPECT_GE(rec.pickup_time, r.release_time - 1e-6);
    EXPECT_GE(rec.dropoff_time, rec.pickup_time - 1e-6);
    // Riding at least as long as the direct trip (taxis cannot teleport).
    EXPECT_GE(rec.dropoff_time - rec.pickup_time, r.direct_cost - 1e-6);
    // No-loss payment guarantee.
    EXPECT_LE(rec.shared_fare, rec.regular_fare + 1e-9);
    EXPECT_GE(rec.shared_fare, 0.0);
    total_shared_fares += rec.shared_fare;
  }

  // --- fleet invariants ---
  double fleet_income = 0.0;
  for (const TaxiState& t : fleet) {
    EXPECT_GE(t.driven_meters, t.occupied_meters - 1e-6) << "taxi " << t.id;
    EXPECT_GE(t.onboard, 0);
    EXPECT_LE(t.onboard, t.capacity);
    fleet_income += t.income;
  }
  // Money conservation: drivers collect exactly what passengers paid.
  EXPECT_NEAR(fleet_income, total_shared_fares, 1e-6)
      << SchemeName(param.scheme);

  // --- aggregate sanity ---
  EXPECT_LE(m.ServedRequests(), m.TotalRequests());
  EXPECT_EQ(m.ServedRequests(), m.ServedOnline() + m.ServedOffline());
  if (param.scheme == SchemeKind::kNoSharing) {
    EXPECT_EQ(m.ServedOffline(), 0);
  }
}

PropertyCase Case(SchemeKind scheme, uint64_t seed) {
  return PropertyCase{.scheme = scheme, .seed = seed};
}

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string name = SchemeName(info.param.scheme);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, EnginePropertyTest,
    ::testing::Values(Case(SchemeKind::kNoSharing, 1),
                      Case(SchemeKind::kTShare, 1),
                      Case(SchemeKind::kPGreedyDp, 1),
                      Case(SchemeKind::kMtShare, 1),
                      Case(SchemeKind::kMtSharePro, 1),
                      Case(SchemeKind::kTShare, 2),
                      Case(SchemeKind::kMtShare, 2),
                      Case(SchemeKind::kMtSharePro, 2),
                      Case(SchemeKind::kMtShare, 3),
                      Case(SchemeKind::kPGreedyDp, 3)),
    CaseName);

}  // namespace
}  // namespace mtshare
