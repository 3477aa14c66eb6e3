#include "routing/one_to_many.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/distance_oracle.h"

namespace mtshare {
namespace {

RoadNetwork MakeNet(uint64_t seed, double one_way = 0.0) {
  GridCityOptions opt;
  opt.rows = 13;
  opt.cols = 13;
  opt.seed = seed;
  opt.one_way_fraction = one_way;
  return MakeGridCity(opt);
}

TEST(DistanceOracleTest, OneSourceBatchMatchesCostBitwiseInBothModes) {
  RoadNetwork net = MakeNet(23, /*one_way=*/0.2);
  DistanceOracle exact(net);
  OracleOptions ch_opts;
  ch_opts.backend = OracleBackend::kCh;
  DistanceOracle ch(net, ch_opts);
  ASSERT_EQ(exact.backend(), OracleBackend::kExact);

  Rng rng(231);
  std::vector<VertexId> targets;
  std::vector<Seconds> got;
  for (int round = 0; round < 20; ++round) {
    VertexId source = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    targets.clear();
    for (int i = 0; i < 8; ++i) {
      targets.push_back(VertexId(rng.NextInt(0, net.num_vertices() - 1)));
    }
    const CostFan fan{source, targets};
    for (DistanceOracle* oracle : {&exact, &ch}) {
      oracle->CostFans({&fan, 1}, &got);
      ASSERT_EQ(got.size(), targets.size());
      for (size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(got[i], oracle->Cost(source, targets[i]));
      }
    }
  }
}

TEST(DistanceOracleTest, OneSourceBatchCountsOneQueryAndOneBatch) {
  RoadNetwork net = MakeNet(24);
  DistanceOracle oracle(net);
  std::vector<VertexId> targets{1, 2, 3, 4, 5};
  std::vector<Seconds> got;
  int64_t q0 = oracle.queries();
  const CostFan fan{0, targets};
  oracle.CostFans({&fan, 1}, &got);
  EXPECT_EQ(oracle.queries() - q0, 1);
  EXPECT_EQ(oracle.batch_queries(), 1);
  // The counter invariant the oracle documents: row traffic never exceeds
  // queries.
  EXPECT_LE(oracle.row_hits() + oracle.row_misses(), oracle.queries());
}

class InsertionCostBatchTest
    : public ::testing::TestWithParam<OracleBackend> {
 protected:
  InsertionCostBatchTest() : net_(MakeNet(25, /*one_way=*/0.25)) {
    OracleOptions opts;
    opts.backend = GetParam();
    oracle_ = std::make_unique<DistanceOracle>(net_, opts);
    // The reference answers per-pair queries on the exact backend: all
    // backends must agree bit for bit, so cross-backend comparison is the
    // stronger check.
    reference_ = std::make_unique<DistanceOracle>(net_);
  }

  /// Every leg an insertion DP can request over `walks` (endpoint fans,
  /// stop->endpoint legs, base-adjacent stop pairs) is primed and equals
  /// the reference bit for bit.
  void ExpectLegsPrimed(const InsertionCostBatch& batch, VertexId origin,
                        VertexId dest,
                        const std::vector<std::vector<VertexId>>& walks) {
    const int64_t fallbacks = batch.stats().fallback_queries;
    auto check = [&](VertexId a, VertexId b) {
      EXPECT_EQ(batch.Cost(a, b), reference_->Cost(a, b))
          << a << "->" << b << " backend=" << OracleBackendName(GetParam());
    };
    check(origin, dest);
    for (const std::vector<VertexId>& walk : walks) {
      for (size_t i = 0; i < walk.size(); ++i) {
        check(origin, walk[i]);
        check(dest, walk[i]);
        check(walk[i], origin);
        check(walk[i], dest);
        if (i + 1 < walk.size()) check(walk[i], walk[i + 1]);
      }
    }
    EXPECT_EQ(batch.stats().fallback_queries, fallbacks);
  }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
  std::unique_ptr<DistanceOracle> reference_;
};

TEST_P(InsertionCostBatchTest, PrimedLegsMatchOracleBitwiseWithNoFallbacks) {
  InsertionCostBatch batch(net_, oracle_.get());
  Rng rng(251);
  for (int round = 0; round < 15; ++round) {
    const int64_t batches_before = oracle_->batch_queries();
    VertexId origin = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    VertexId dest = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    batch.Begin(origin, dest);
    // A few candidate walks: taxi location followed by schedule stops.
    std::vector<std::vector<VertexId>> walks;
    for (int c = 0; c < 4; ++c) {
      std::vector<VertexId> walk;
      int stops = static_cast<int>(rng.NextInt(1, 6));
      for (int s = 0; s < stops; ++s) {
        walk.push_back(VertexId(rng.NextInt(0, net_.num_vertices() - 1)));
      }
      batch.AddCandidate(walk);
      walks.push_back(std::move(walk));
    }
    batch.Prime();
    // One call for the endpoint fans, one for the per-stop fans.
    EXPECT_EQ(oracle_->batch_queries() - batches_before, 2);
    ExpectLegsPrimed(batch, origin, dest, walks);
  }
  EXPECT_EQ(batch.stats().fallback_queries, 0);
  EXPECT_GT(batch.stats().batch_queries, 0);
  if (GetParam() == OracleBackend::kCh) {
    // CH priming runs entirely on bucket-based CostFans calls.
    ChQueryStats ch = oracle_->ch_query_stats();
    EXPECT_GT(ch.bucket_queries, 0);
    EXPECT_GT(ch.bucket_entries, 0);
    EXPECT_GT(ch.upward_settled, 0);
  }
}

TEST_P(InsertionCostBatchTest, IncrementalPrimingCoversLaterCandidates) {
  // T-Share's usage pattern: Begin once, then AddCandidate + Prime per
  // candidate, with overlapping stop sets between candidates.
  InsertionCostBatch batch(net_, oracle_.get());
  const VertexId origin = 3;
  const VertexId dest = 90;
  batch.Begin(origin, dest);
  const std::vector<std::vector<VertexId>> walks{
      {10, 20, 30},
      {20, 30, 40},  // shares stops with the first, adds a fresh one
      {30, 20},      // no fresh stop, only a new base-adjacent pair
  };
  // Batch calls per Prime: endpoint fans and per-stop fans while a stop is
  // fresh, the per-stop fans alone once none is.
  const int64_t expected_batches[] = {2, 2, 1};
  for (size_t w = 0; w < walks.size(); ++w) {
    const int64_t before = oracle_->batch_queries();
    batch.AddCandidate(walks[w]);
    batch.Prime();
    EXPECT_EQ(oracle_->batch_queries() - before, expected_batches[w])
        << "walk " << w;
  }
  ExpectLegsPrimed(batch, origin, dest, walks);
  EXPECT_EQ(batch.stats().fallback_queries, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, InsertionCostBatchTest,
    ::testing::Values(OracleBackend::kExact, OracleBackend::kCh),
    [](const ::testing::TestParamInfo<OracleBackend>& info) {
      std::string name = OracleBackendName(info.param);
      name[0] = static_cast<char>(std::toupper(name[0]));
      return name + "Mode";
    });

}  // namespace
}  // namespace mtshare
