// Tier-1 coverage for the ScenarioSpec API: spec validation, the two
// spellings of a request stream (requests pointer vs. explicit source),
// batched leg-cost priming, and the oracle counters RunScenario surfaces
// through Metrics.
#include "core/mtshare_system.h"

#include <gtest/gtest.h>

#include "graph/graph_generators.h"
#include "sim/request_source.h"

namespace mtshare {
namespace {

class ScenarioSpecTest : public ::testing::Test {
 protected:
  ScenarioSpecTest() {
    GridCityOptions gopt;
    gopt.rows = 16;
    gopt.cols = 16;
    gopt.seed = 33;
    net_ = MakeGridCity(gopt);
    demand_ = std::make_unique<DemandModel>(net_, DemandModelOptions{});
    oracle_ = std::make_unique<DistanceOracle>(net_);

    ScenarioOptions sopt;
    sopt.num_requests = 180;
    sopt.num_historical_trips = 3000;
    sopt.offline_fraction = 0.15;
    scenario_ = MakeScenario(net_, *demand_, *oracle_, sopt);

    config_.kappa = 20;
    config_.kt = 5;
  }

  /// Fresh system per run so oracle warm-up (row misses) is comparable.
  std::unique_ptr<MTShareSystem> FreshSystem() {
    auto result =
        MTShareSystem::Create(net_, scenario_.HistoricalOdPairs(), config_);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  }

  Metrics RunOnFreshSystem(SchemeKind scheme) {
    std::unique_ptr<MTShareSystem> system = FreshSystem();
    ScenarioSpec spec;
    spec.scheme = scheme;
    spec.requests = &scenario_.requests;
    spec.num_taxis = 24;
    spec.fleet_seed = 7;
    Result<Metrics> run = system->RunScenario(spec);
    EXPECT_TRUE(run.ok()) << run.status();
    return std::move(run).value();
  }

  RoadNetwork net_;
  std::unique_ptr<DemandModel> demand_;
  std::unique_ptr<DistanceOracle> oracle_;
  Scenario scenario_;
  SystemConfig config_;
};

/// Everything the simulation decides (as opposed to measures on the wall
/// clock) must match bit for bit.
void ExpectIdenticalOutcomes(const Metrics& a, const Metrics& b,
                             const std::string& label) {
  ASSERT_EQ(a.TotalRequests(), b.TotalRequests()) << label;
  EXPECT_EQ(a.ServedRequests(), b.ServedRequests()) << label;
  EXPECT_EQ(a.ServedOnline(), b.ServedOnline()) << label;
  EXPECT_EQ(a.ServedOffline(), b.ServedOffline()) << label;
  EXPECT_DOUBLE_EQ(a.total_driver_income, b.total_driver_income) << label;
  EXPECT_EQ(a.index_memory_bytes, b.index_memory_bytes) << label;
  EXPECT_EQ(a.oracle_queries, b.oracle_queries) << label;
  EXPECT_EQ(a.oracle_row_misses, b.oracle_row_misses) << label;
  EXPECT_EQ(a.oracle_row_hits, b.oracle_row_hits) << label;
  for (int32_t i = 0; i < a.TotalRequests(); ++i) {
    const RequestRecord& ra = a.records()[i];
    const RequestRecord& rb = b.records()[i];
    EXPECT_EQ(ra.assigned, rb.assigned) << label << " req " << i;
    EXPECT_EQ(ra.completed, rb.completed) << label << " req " << i;
    EXPECT_EQ(ra.taxi, rb.taxi) << label << " req " << i;
    EXPECT_EQ(ra.candidates, rb.candidates) << label << " req " << i;
    EXPECT_DOUBLE_EQ(ra.pickup_time, rb.pickup_time) << label << " req " << i;
    EXPECT_DOUBLE_EQ(ra.dropoff_time, rb.dropoff_time)
        << label << " req " << i;
    EXPECT_DOUBLE_EQ(ra.regular_fare, rb.regular_fare) << label << " req " << i;
    EXPECT_DOUBLE_EQ(ra.shared_fare, rb.shared_fare) << label << " req " << i;
  }
}

/// Every insertion evaluation reads its leg costs from the exact table:
/// rows were hit, no leg fell back to a per-pair oracle query (a fallback
/// would mean a batch primed on the CH missed a leg shape), and
/// lower-bound pruning and the detour-ellipse screen both fired. The DP's
/// closing CheckSchedule re-walk reads every leg of the winning schedule,
/// which fills the exact-table row of every committed leg's source, so
/// each shortest-path leg is walked back through it and none is searched
/// for lack of a row.
TEST_F(ScenarioSpecTest, BatchedRoutingPrimesEveryLeg) {
  for (SchemeKind scheme : {SchemeKind::kTShare, SchemeKind::kPGreedyDp,
                            SchemeKind::kMtShare, SchemeKind::kMtSharePro}) {
    Metrics m = RunOnFreshSystem(scheme);
    EXPECT_GT(m.ServedRequests(), 0) << SchemeName(scheme);
    EXPECT_GT(m.oracle_row_hits, 0) << SchemeName(scheme);
    EXPECT_EQ(m.routing.fallback_queries, 0) << SchemeName(scheme);
    // pGreedyDP has no reachability probe, so its landmark prunes all land
    // in the detour-ellipse screen.
    if (scheme != SchemeKind::kPGreedyDp) {
      EXPECT_GT(m.routing.lb_pruned, 0) << SchemeName(scheme);
    }
    EXPECT_GT(m.routing.ellipse_pruned, 0) << SchemeName(scheme);
    EXPECT_GT(m.routing.route_legs_walked, 0) << SchemeName(scheme);
    EXPECT_EQ(m.routing.route_legs_searched, 0) << SchemeName(scheme);
  }
  // No-Sharing primes no insertion, but its pickup reachability probe on
  // the exact table takes the same admissible landmark prune.
  Metrics m = RunOnFreshSystem(SchemeKind::kNoSharing);
  EXPECT_EQ(m.oracle_backend, "exact");
  EXPECT_GT(m.ServedRequests(), 0);
  EXPECT_GT(m.routing.lb_pruned, 0);
  EXPECT_EQ(m.routing.fallback_queries, 0);
}

/// ScenarioSpec.requests is sugar for a VectorRequestSource over the same
/// vector — the two spellings must be indistinguishable down to oracle
/// counters (the engine runs one ingest path for both).
TEST_F(ScenarioSpecTest, ExplicitVectorSourceMatchesRequestsPointer) {
  VectorRequestSource source(&scenario_.requests);
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.source = &source;
  spec.num_taxis = 24;
  spec.fleet_seed = 7;
  Result<Metrics> streamed = FreshSystem()->RunScenario(spec);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  Metrics spec_run = RunOnFreshSystem(SchemeKind::kMtShare);
  ExpectIdenticalOutcomes(streamed.value(), spec_run, "source-vs-requests");
}

TEST_F(ScenarioSpecTest, OracleCountersSurfaceThroughMetrics) {
  Metrics m = RunOnFreshSystem(SchemeKind::kMtShare);
  EXPECT_GT(m.oracle_queries, 0);
  EXPECT_GT(m.oracle_row_hits, 0);
  EXPECT_GT(m.oracle_row_misses, 0);
  // Row traffic never exceeds queries (same-vertex queries short-circuit).
  EXPECT_LE(m.oracle_row_hits + m.oracle_row_misses, m.oracle_queries);
}

TEST_F(ScenarioSpecTest, ValidateRejectsBadSpecs) {
  std::unique_ptr<MTShareSystem> system = FreshSystem();
  ScenarioSpec spec;  // no requests
  spec.num_taxis = 10;
  EXPECT_EQ(system->RunScenario(spec).status().code(),
            StatusCode::kInvalidArgument);

  spec.requests = &scenario_.requests;
  spec.num_taxis = 0;
  EXPECT_EQ(system->RunScenario(spec).status().code(),
            StatusCode::kInvalidArgument);

  spec.num_taxis = 10;
  spec.num_threads = -1;
  EXPECT_EQ(system->RunScenario(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.num_threads = 4096;
  EXPECT_EQ(system->RunScenario(spec).status().code(),
            StatusCode::kInvalidArgument);

  // requests and source are exclusive; the serve knobs must be sane.
  spec.num_threads = 1;
  VectorRequestSource source(&scenario_.requests);
  spec.source = &source;
  EXPECT_EQ(system->RunScenario(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.source = nullptr;
  spec.batch_window_ms = -1.0;
  EXPECT_EQ(system->RunScenario(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.batch_window_ms = 0.0;
  spec.max_queue = -5;
  EXPECT_EQ(system->RunScenario(spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ScenarioSpecTest, ValidateRejectsMalformedRequestStreams) {
  std::unique_ptr<MTShareSystem> system = FreshSystem();
  ScenarioSpec spec;
  spec.num_taxis = 10;

  std::vector<RideRequest> sparse_ids = scenario_.requests;
  sparse_ids[3].id = 9999;
  spec.requests = &sparse_ids;
  EXPECT_EQ(system->RunScenario(spec).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<RideRequest> unsorted = scenario_.requests;
  std::swap(unsorted[0].release_time, unsorted.back().release_time);
  spec.requests = &unsorted;
  EXPECT_EQ(system->RunScenario(spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ScenarioSpecTest, CreateRejectsInvalidConfig) {
  SystemConfig bad = config_;
  bad.kappa = 0;
  auto result = MTShareSystem::Create(net_, scenario_.HistoricalOdPairs(), bad);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // CreateScenarioSystem hands Create's status back.
  ScenarioOptions sopt;
  sopt.num_historical_trips = 10;
  EXPECT_EQ(CreateScenarioSystem(net_, *demand_, sopt, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ScenarioSpecTest, CreateRejectsBipartiteWithoutHistory) {
  auto result = MTShareSystem::Create(net_, /*historical_trips=*/{}, config_);
  EXPECT_FALSE(result.ok());

  SystemConfig grid = config_;
  grid.bipartite_partitioning = false;
  auto ok = MTShareSystem::Create(net_, /*historical_trips=*/{}, grid);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(ParseSchemeTest, InvertsSchemeName) {
  for (SchemeKind kind : {SchemeKind::kNoSharing, SchemeKind::kTShare,
                          SchemeKind::kPGreedyDp, SchemeKind::kMtShare,
                          SchemeKind::kMtSharePro}) {
    std::optional<SchemeKind> parsed = ParseScheme(SchemeName(kind));
    ASSERT_TRUE(parsed.has_value()) << SchemeName(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(ParseSchemeTest, AcceptsCliSpellingsCaseInsensitively) {
  EXPECT_EQ(ParseScheme("mt-share"), SchemeKind::kMtShare);
  EXPECT_EQ(ParseScheme("MT-SHARE-PRO"), SchemeKind::kMtSharePro);
  EXPECT_EQ(ParseScheme("pgreedy-dp"), SchemeKind::kPGreedyDp);
  EXPECT_EQ(ParseScheme("PGreedyDP"), SchemeKind::kPGreedyDp);
  EXPECT_EQ(ParseScheme("no-sharing"), SchemeKind::kNoSharing);
  EXPECT_EQ(ParseScheme("t-share"), SchemeKind::kTShare);
}

TEST(ParseSchemeTest, RejectsUnknownNames) {
  EXPECT_FALSE(ParseScheme("").has_value());
  EXPECT_FALSE(ParseScheme("mtshare").has_value());
  EXPECT_FALSE(ParseScheme("uber-pool").has_value());
}

}  // namespace
}  // namespace mtshare
