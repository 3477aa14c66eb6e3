#include <gtest/gtest.h>

#include "core/mtshare_system.h"
#include "graph/graph_generators.h"
#include "matching/taxi_state.h"

namespace mtshare {
namespace {

// Scheme-level behavioural tests on a mid-size city. The full comparative
// curves live in bench/; here we pin the qualitative properties the paper
// claims for each scheme.
class DispatchersTest : public ::testing::Test {
 protected:
  DispatchersTest() {
    // City must be meaningfully larger than gamma (2.5 km) for the indexing
    // differences between schemes to matter: 30x30 blocks of 200 m ~ 6 km.
    GridCityOptions gopt;
    gopt.rows = 30;
    gopt.cols = 30;
    gopt.spacing_m = 200.0;
    gopt.seed = 23;
    net_ = MakeGridCity(gopt);
    demand_ = std::make_unique<DemandModel>(net_, DemandModelOptions{});

    ScenarioOptions sopt;
    sopt.num_requests = 400;
    sopt.num_historical_trips = 6000;
    sopt.seed = 31;

    SystemConfig cfg;
    cfg.kappa = 30;
    cfg.kt = 8;
    ScenarioSystem built =
        CreateScenarioSystem(net_, *demand_, sopt, cfg).value();
    system_ = std::move(built.system);
    scenario_ = std::move(built.scenario);
  }

  // Runs the fixture scenario through the spec API (the old positional
  // overload is gone).
  Metrics Run(SchemeKind scheme, int32_t taxis) {
    ScenarioSpec spec;
    spec.scheme = scheme;
    spec.requests = &scenario_.requests;
    spec.num_taxis = taxis;
    Result<Metrics> m = system_->RunScenario(spec);
    EXPECT_TRUE(m.ok()) << m.status();
    return m.value();
  }

  RoadNetwork net_;
  std::unique_ptr<DemandModel> demand_;
  Scenario scenario_;
  std::unique_ptr<MTShareSystem> system_;
};

TEST_F(DispatchersTest, TaxiMobilityVectorFromSchedule) {
  TaxiState t;
  t.id = 0;
  t.location = 0;
  EXPECT_DOUBLE_EQ(TaxiMobilityVector(t, net_).Length(), 0.0);

  RideRequest r;
  r.id = 0;
  r.origin = 1;
  r.destination = net_.num_vertices() - 1;
  r.deadline = 1e9;
  r.direct_cost = 100;
  t.schedule = Schedule::WithInsertion(Schedule(), r, 0, 0);
  MobilityVector mv = TaxiMobilityVector(t, net_);
  EXPECT_GT(mv.Length(), 0.0);
  EXPECT_TRUE(mv.destination ==
              net_.coord(net_.num_vertices() - 1));
}

TEST_F(DispatchersTest, MakeFleetPlacesTaxisOnVertices) {
  auto fleet = MakeFleet(net_, 25, 4, 99, 100.0);
  ASSERT_EQ(fleet.size(), 25u);
  for (const TaxiState& t : fleet) {
    EXPECT_GE(t.location, 0);
    EXPECT_LT(t.location, net_.num_vertices());
    EXPECT_EQ(t.capacity, 4);
    EXPECT_DOUBLE_EQ(t.location_time, 100.0);
    EXPECT_TRUE(t.Idle());
  }
}

TEST_F(DispatchersTest, ComparativeServedOrdering) {
  // Paper Figs. 6/10: sharing schemes serve more than No-Sharing and
  // mT-Share serves the most.
  const int32_t taxis = 30;
  Metrics none = Run(SchemeKind::kNoSharing, taxis);
  Metrics tshare = Run(SchemeKind::kTShare, taxis);
  Metrics pgreedy = Run(SchemeKind::kPGreedyDp, taxis);
  Metrics mt = Run(SchemeKind::kMtShare, taxis);

  // T-Share's first-valid greed can sink to No-Sharing levels under light
  // demand (the paper observes the same in Fig. 10); require "similar".
  EXPECT_GE(tshare.ServedRequests(), none.ServedRequests() * 3 / 4);
  EXPECT_GT(pgreedy.ServedRequests(), none.ServedRequests());
  EXPECT_GT(mt.ServedRequests(), none.ServedRequests());
  // mT-Share at least matches the grid baselines on this workload.
  EXPECT_GE(mt.ServedRequests(), tshare.ServedRequests());
}

TEST_F(DispatchersTest, CandidateSetOrdering) {
  // Paper Table III: T-Share's dual-side search examines fewer candidates
  // than pGreedyDP's single-side scan.
  const int32_t taxis = 30;
  Metrics tshare = Run(SchemeKind::kTShare, taxis);
  Metrics pgreedy = Run(SchemeKind::kPGreedyDp, taxis);
  EXPECT_LT(tshare.MeanCandidates(), pgreedy.MeanCandidates());
}

TEST_F(DispatchersTest, AssignedRoutesStartAtTaxiAndVisitEvents) {
  std::vector<TaxiState> fleet = MakeFleet(net_, 20, 3, 5, 0.0);
  auto dispatcher =
      system_->MakeDispatcher(SchemeKind::kMtShare, &fleet);
  int32_t checked = 0;
  for (const RideRequest& r : scenario_.requests) {
    if (r.offline) continue;
    DispatchOutcome outcome = dispatcher->Dispatch(r, r.release_time);
    if (!outcome.assigned) continue;
    const TaxiState& t = fleet[outcome.taxi];
    ASSERT_FALSE(outcome.route.path.vertices.empty());
    EXPECT_EQ(outcome.route.path.front(), t.location);
    // Every scheduled event vertex appears on the route.
    for (const ScheduleEvent& e : outcome.schedule.events()) {
      auto& verts = outcome.route.path.vertices;
      EXPECT_NE(std::find(verts.begin(), verts.end(), e.vertex), verts.end());
    }
    // Arrivals respect deadlines.
    for (size_t i = 0; i < outcome.schedule.size(); ++i) {
      EXPECT_LE(outcome.route.event_arrivals[i],
                outcome.schedule.at(i).deadline + 1e-6);
    }
    if (++checked >= 25) break;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(DispatchersTest, MtShareDetourNeverNegative) {
  std::vector<TaxiState> fleet = MakeFleet(net_, 20, 3, 5, 0.0);
  auto dispatcher = system_->MakeDispatcher(SchemeKind::kMtShare, &fleet);
  for (size_t i = 0; i < 40 && i < scenario_.requests.size(); ++i) {
    const RideRequest& r = scenario_.requests[i];
    if (r.offline) continue;
    DispatchOutcome outcome = dispatcher->Dispatch(r, r.release_time);
    if (outcome.assigned) {
      EXPECT_GE(outcome.detour, -1e-6);
    }
  }
}

TEST_F(DispatchersTest, ProVariantUsesProbabilisticRoutes) {
  Metrics pro = Run(SchemeKind::kMtSharePro, 30);
  // The pro variant must still behave sanely.
  EXPECT_GT(pro.ServedRequests(), 0);
  // Probabilistic routing costs more response time than basic mT-Share.
  Metrics basic = Run(SchemeKind::kMtShare, 30);
  EXPECT_GE(pro.MeanResponseMs(), basic.MeanResponseMs() * 0.5);
}

// An encounter prices its one insertion through EvaluateCandidates: the
// ellipse screen, the primed legs and the masked DP. On either backend it
// must find exactly the insertion the unscreened DP finds on per-pair
// oracle costs, and every leg it reads must have been primed.
class EncounterInsertionTest : public ::testing::TestWithParam<OracleBackend> {
};

TEST_P(EncounterInsertionTest, MatchesPerPairDpWithNoFallbacks) {
  GridCityOptions gopt;
  gopt.rows = 14;
  gopt.cols = 14;
  gopt.one_way_fraction = 0.2;
  gopt.seed = 83;
  RoadNetwork net = MakeGridCity(gopt);
  DemandModel demand(net, DemandModelOptions{});
  Rng rng(831);
  SystemConfig cfg;
  cfg.kappa = 16;
  cfg.kt = 5;
  cfg.oracle.backend = GetParam();
  auto system =
      MTShareSystem::Create(
          net, OdPairsOf(GenerateHistoricalTrips(demand, 3000, rng)), cfg)
          .value();
  DistanceOracle& oracle = system->oracle();
  std::vector<TaxiState> fleet = MakeFleet(net, 3, 4, 17, 0.0);
  auto dispatcher = system->MakeDispatcher(SchemeKind::kMtShare, &fleet);
  // The bucket store exists from construction on the CH, never on the
  // table.
  EXPECT_EQ(dispatcher->buckets() != nullptr,
            GetParam() == OracleBackend::kCh);
  TaxiState& taxi = fleet[0];
  const auto request = [&](RequestId id, VertexId o, VertexId d,
                           Seconds slack) {
    RideRequest r;
    r.id = id;
    r.origin = o;
    r.destination = d;
    r.direct_cost = oracle.Cost(o, d);
    r.deadline = 1.3 * r.direct_cost + slack;
    return r;
  };
  // Two booked requests, both still to be picked up, with room for some
  // detours and not for others.
  const VertexId last = net.num_vertices() - 1;
  taxi.schedule = Schedule::WithInsertion(
      Schedule::WithInsertion(
          Schedule(), request(1, taxi.location, last / 2, 400.0), 0, 0),
      request(2, last / 3, last, 600.0), 1, 2);

  int32_t served = 0;
  int64_t dispatch_row_hits = 0;  // the dispatcher's own table reads
  for (RequestId id = 10; id < 40; ++id) {
    const VertexId dest = VertexId(rng.NextInt(0, last));
    if (dest == taxi.location) continue;
    const RideRequest hail = request(id, taxi.location, dest, 0.0);
    const InsertionResult want = FindBestInsertionDp(
        taxi.schedule, hail, taxi.location, 0.0, taxi.onboard, taxi.capacity,
        [&](VertexId a, VertexId b) { return oracle.Cost(a, b); });
    const int64_t row_hits = oracle.row_hits();
    const DispatchOutcome got =
        dispatcher->TryServeEncountered(hail, taxi.id, 0.0);
    dispatch_row_hits += oracle.row_hits() - row_hits;
    ASSERT_EQ(got.assigned, want.found) << "request " << id;
    if (!got.assigned) continue;
    ++served;
    EXPECT_EQ(got.detour, want.detour) << "request " << id;
    ASSERT_EQ(got.schedule.size(), want.schedule.size());
    for (size_t k = 0; k < want.schedule.size(); ++k) {
      EXPECT_EQ(got.schedule.at(k).request, want.schedule.at(k).request);
      EXPECT_EQ(got.schedule.at(k).is_pickup, want.schedule.at(k).is_pickup);
    }
  }
  EXPECT_GT(served, 0);
  const BatchRoutingStats stats = dispatcher->routing_stats();
  EXPECT_GT(stats.slots_screened, 0);
  // Read from table rows on the exact table, primed from labels on the
  // CH.
  if (GetParam() == OracleBackend::kExact) {
    EXPECT_GT(dispatch_row_hits, 0);
    EXPECT_EQ(stats.ch_bucket_queries, 0);
  } else {
    EXPECT_EQ(dispatch_row_hits, 0);
    EXPECT_GT(stats.ch_bucket_queries, 0);
  }
  EXPECT_EQ(stats.fallback_queries, 0);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EncounterInsertionTest,
                         ::testing::Values(OracleBackend::kExact,
                                           OracleBackend::kCh));

}  // namespace
}  // namespace mtshare
