#include "core/mtshare_system.h"

#include <gtest/gtest.h>

#include "graph/graph_generators.h"

namespace mtshare {
namespace {

TEST(SystemConfigTest, DefaultsValidate) {
  EXPECT_TRUE(SystemConfig{}.Validate().ok());
}

TEST(SystemConfigTest, RejectsBadValues) {
  SystemConfig c;
  c.kappa = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = SystemConfig{};
  c.kt = c.kappa + 1;
  EXPECT_FALSE(c.Validate().ok());
  c = SystemConfig{};
  c.rho = 1.0;
  EXPECT_FALSE(c.Validate().ok());
  c = SystemConfig{};
  c.matching.lambda = 1.5;
  EXPECT_FALSE(c.Validate().ok());
  c = SystemConfig{};
  c.taxi_capacity = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = SystemConfig{};
  c.matching.gamma_max_m = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(SystemConfigTest, RejectsBadOracleOptions) {
  // This previously reached the oracle unchecked; Create must report it
  // instead.
  SystemConfig c;
  c.oracle.ch.witness_settle_limit = 0;
  EXPECT_FALSE(c.Validate().ok());

  GridCityOptions gopt;
  gopt.rows = 6;
  gopt.cols = 6;
  RoadNetwork net = MakeGridCity(gopt);
  SystemConfig bad;
  bad.bipartite_partitioning = false;  // isolate the oracle failure
  bad.oracle.ch.witness_settle_limit = -1;
  auto result = MTShareSystem::Create(net, {}, bad);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // CreateScenarioSystem hands Create's status back.
  DemandModel demand(net, DemandModelOptions{});
  ScenarioOptions sopt;
  sopt.num_historical_trips = 10;
  EXPECT_EQ(CreateScenarioSystem(net, demand, sopt, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemeNameTest, AllNamed) {
  EXPECT_STREQ(SchemeName(SchemeKind::kNoSharing), "No-Sharing");
  EXPECT_STREQ(SchemeName(SchemeKind::kTShare), "T-Share");
  EXPECT_STREQ(SchemeName(SchemeKind::kPGreedyDp), "pGreedyDP");
  EXPECT_STREQ(SchemeName(SchemeKind::kMtShare), "mT-Share");
  EXPECT_STREQ(SchemeName(SchemeKind::kMtSharePro), "mT-Share-pro");
}

class MTShareSystemTest : public ::testing::Test {
 protected:
  MTShareSystemTest() {
    GridCityOptions gopt;
    gopt.rows = 18;
    gopt.cols = 18;
    gopt.seed = 21;
    net_ = MakeGridCity(gopt);
    demand_ = std::make_unique<DemandModel>(net_, DemandModelOptions{});

    ScenarioOptions sopt;
    sopt.num_requests = 250;
    sopt.num_historical_trips = 4000;
    sopt.offline_fraction = 0.2;

    config_.kappa = 24;
    config_.kt = 6;
    ScenarioSystem built =
        CreateScenarioSystem(net_, *demand_, sopt, config_).value();
    system_ = std::move(built.system);
    scenario_ = std::move(built.scenario);
  }

  // Runs the fixture scenario through the spec API (the old positional
  // overload is gone).
  Metrics Run(SchemeKind scheme, int32_t taxis, uint64_t fleet_seed = 1) {
    ScenarioSpec spec;
    spec.scheme = scheme;
    spec.requests = &scenario_.requests;
    spec.num_taxis = taxis;
    spec.fleet_seed = fleet_seed;
    Result<Metrics> m = system_->RunScenario(spec);
    EXPECT_TRUE(m.ok()) << m.status();
    return m.value();
  }

  RoadNetwork net_;
  std::unique_ptr<DemandModel> demand_;
  Scenario scenario_;
  SystemConfig config_;
  std::unique_ptr<MTShareSystem> system_;
};

TEST_F(MTShareSystemTest, BuildsMobilityStructures) {
  EXPECT_GT(system_->partitioning().num_partitions(), 4);
  EXPECT_EQ(system_->transitions().num_groups(),
            system_->partitioning().num_partitions());
  EXPECT_GT(system_->SharedIndexMemoryBytes(), 0u);
}

TEST_F(MTShareSystemTest, AllSchemesRunAndRespectInvariants) {
  for (SchemeKind scheme :
       {SchemeKind::kNoSharing, SchemeKind::kTShare, SchemeKind::kPGreedyDp,
        SchemeKind::kMtShare, SchemeKind::kMtSharePro}) {
    Metrics m = Run(scheme, 30);
    EXPECT_LE(m.ServedRequests(), m.TotalRequests()) << SchemeName(scheme);
    EXPECT_GE(m.ServedRequests(), 0) << SchemeName(scheme);
    EXPECT_GE(m.MeanWaitingMinutes(), 0.0) << SchemeName(scheme);
    EXPECT_GE(m.MeanDetourMinutes(), 0.0) << SchemeName(scheme);
    EXPECT_GE(m.total_driver_income, 0.0) << SchemeName(scheme);
    // Every completed request met its deadline and kept causal order.
    for (const RequestRecord& rec : m.records()) {
      if (!rec.completed) continue;
      EXPECT_GE(rec.pickup_time, rec.release_time - 1e-6)
          << SchemeName(scheme) << " req " << rec.id;
      EXPECT_GE(rec.dropoff_time, rec.pickup_time) << SchemeName(scheme);
      EXPECT_GE(rec.shared_fare, 0.0);
      EXPECT_LE(rec.shared_fare, rec.regular_fare + 1e-9)
          << SchemeName(scheme) << " req " << rec.id;
    }
  }
}

TEST_F(MTShareSystemTest, SharingBeatsNoSharing) {
  Metrics none = Run(SchemeKind::kNoSharing, 25);
  Metrics mt = Run(SchemeKind::kMtShare, 25);
  EXPECT_GT(mt.ServedRequests(), none.ServedRequests());
}

TEST_F(MTShareSystemTest, NoSharingHasZeroDetour) {
  Metrics m = Run(SchemeKind::kNoSharing, 30);
  EXPECT_NEAR(m.MeanDetourMinutes(), 0.0, 1e-9);
}

TEST_F(MTShareSystemTest, NoSharingServesNoOffline) {
  Metrics m = Run(SchemeKind::kNoSharing, 30);
  EXPECT_EQ(m.ServedOffline(), 0);
}

TEST_F(MTShareSystemTest, SharingSchemesCanServeOffline) {
  Metrics m = Run(SchemeKind::kMtSharePro, 30);
  EXPECT_GE(m.ServedOffline(), 0);  // encounter-driven, workload-dependent
  EXPECT_GT(m.ServedRequests(), 0);
}

TEST_F(MTShareSystemTest, DeterministicRuns) {
  Metrics a = Run(SchemeKind::kTShare, 20, /*fleet_seed=*/9);
  Metrics b = Run(SchemeKind::kTShare, 20, /*fleet_seed=*/9);
  EXPECT_EQ(a.ServedRequests(), b.ServedRequests());
  EXPECT_DOUBLE_EQ(a.MeanWaitingMinutes(), b.MeanWaitingMinutes());
}

TEST_F(MTShareSystemTest, MoreTaxisServeMore) {
  Metrics small = Run(SchemeKind::kMtShare, 10);
  Metrics large = Run(SchemeKind::kMtShare, 50);
  EXPECT_GE(large.ServedRequests(), small.ServedRequests());
}

TEST_F(MTShareSystemTest, ChBackendRunsBitIdenticalToExact) {
  // The whole-system check of the CH contract: running the same scenario
  // on the exact table and on the contraction hierarchy must produce the
  // same simulation down to the last served request and fare (all leg
  // costs are bit-identical, so every dispatch decision is too).
  SystemConfig ch_config = config_;
  ch_config.oracle.backend = OracleBackend::kCh;
  auto ch_system =
      MTShareSystem::Create(net_, scenario_.HistoricalOdPairs(), ch_config)
          .value();
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.requests = &scenario_.requests;
  spec.num_taxis = 25;
  Result<Metrics> exact = system_->RunScenario(spec);
  ASSERT_TRUE(exact.ok());
  Result<Metrics> ch = ch_system->RunScenario(spec);
  ASSERT_TRUE(ch.ok());

  EXPECT_EQ(exact.value().oracle_backend, "exact");
  EXPECT_EQ(ch.value().oracle_backend, "ch");
  EXPECT_EQ(exact.value().ServedRequests(), ch.value().ServedRequests());
  EXPECT_EQ(exact.value().ServedOffline(), ch.value().ServedOffline());
  EXPECT_DOUBLE_EQ(exact.value().MeanWaitingMinutes(),
                   ch.value().MeanWaitingMinutes());
  EXPECT_DOUBLE_EQ(exact.value().MeanDetourMinutes(),
                   ch.value().MeanDetourMinutes());
  EXPECT_DOUBLE_EQ(exact.value().total_driver_income,
                   ch.value().total_driver_income);
  const auto& er = exact.value().records();
  const auto& cr = ch.value().records();
  ASSERT_EQ(er.size(), cr.size());
  for (size_t i = 0; i < er.size(); ++i) {
    EXPECT_EQ(er[i].taxi, cr[i].taxi) << "req " << i;
    EXPECT_EQ(er[i].pickup_time, cr[i].pickup_time) << "req " << i;
    EXPECT_EQ(er[i].dropoff_time, cr[i].dropoff_time) << "req " << i;
  }

  // The CH run carries its query counters (insertion primes answered
  // from labels, and their searches) and reads no table row; the exact
  // run reads its legs from table rows and reports no CH query. Both
  // report the same hierarchy build, since every oracle owns one.
  EXPECT_TRUE(ch.value().routing.ch_active);
  EXPECT_GT(ch.value().routing.ch_bucket_queries, 0);
  EXPECT_GT(ch.value().routing.ch_upward_settled, 0);
  EXPECT_GT(ch.value().routing.ch_bucket_entries, 0);
  EXPECT_EQ(ch.value().oracle_row_hits, 0);
  EXPECT_GT(exact.value().oracle_row_hits, 0);
  EXPECT_FALSE(exact.value().routing.ch_active);
  EXPECT_EQ(exact.value().routing.ch_bucket_queries, 0);
  EXPECT_EQ(exact.value().routing.ch_upward_settled, 0);
  EXPECT_EQ(exact.value().routing.ch_bucket_entries, 0);
  EXPECT_GT(exact.value().routing.ch_shortcuts, 0);
  EXPECT_EQ(exact.value().routing.ch_shortcuts,
            ch.value().routing.ch_shortcuts);

  // Only the CH backend hands its hierarchy out for bucket sweeps.
  ASSERT_NE(system_->oracle().ch(), nullptr);
  EXPECT_EQ(system_->BucketSearchCh(&system_->oracle()), nullptr);
  EXPECT_EQ(ch_system->BucketSearchCh(&ch_system->oracle()),
            ch_system->oracle().ch());
}

TEST_F(MTShareSystemTest, GridPartitioningVariantRuns) {
  SystemConfig cfg = config_;
  cfg.bipartite_partitioning = false;
  auto grid_system =
      MTShareSystem::Create(net_, scenario_.HistoricalOdPairs(), cfg).value();
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtShare;
  spec.requests = &scenario_.requests;
  spec.num_taxis = 25;
  Result<Metrics> m = grid_system->RunScenario(spec);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_GT(m.value().ServedRequests(), 0);
}

}  // namespace
}  // namespace mtshare
