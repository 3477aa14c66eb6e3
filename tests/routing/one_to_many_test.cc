#include "routing/one_to_many.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/distance_oracle.h"
#include "routing/last_stop_buckets.h"

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
  static constexpr int32_t kTaxis = 8;

  InsertionCostBatchTest() : net_(MakeNet(25, /*one_way=*/0.25)) {
    OracleOptions opts;
    opts.backend = GetParam();
    oracle_ = std::make_unique<DistanceOracle>(net_, opts);
    // The reference answers per-pair queries on the exact backend: all
    // backends must agree bit for bit, so cross-backend comparison is the
    // stronger check.
    reference_ = std::make_unique<DistanceOracle>(net_);
    // On the CH the legs come from the taxis' labels, kept by the store a
    // dispatcher would own.
    if (GetParam() == OracleBackend::kCh) {
      store_ = std::make_unique<LastStopBuckets>(*oracle_->ch(), kTaxis);
    }
  }

  /// Registers `walk` as taxi `taxi`'s, as the engine's notifications
  /// would: a taxi whose walk changed is dirty.
  void Register(InsertionCostBatch* batch, TaxiId taxi,
                const std::vector<VertexId>& walk) {
    if (store_ != nullptr) store_->MarkDirty(taxi);
    batch->AddCandidate(taxi, walk);
  }

  /// Every leg an insertion DP can request over `walks` (location L then
  /// stops s): L -> o, L -> s1, o/d -> s, s -> o/d, s_k -> s_k+1 and
  /// o -> d, is primed and equals the reference bit for bit. The exact
  /// table's fans also prime o/d -> L and L -> d; the CH does not.
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
      check(walk[0], origin);
      if (GetParam() == OracleBackend::kExact) {
        check(origin, walk[0]);
        check(dest, walk[0]);
        check(walk[0], dest);
      }
      for (size_t i = 0; i < walk.size(); ++i) {
        if (i > 0) {
          check(origin, walk[i]);
          check(dest, walk[i]);
          check(walk[i], origin);
          check(walk[i], dest);
        }
        if (i + 1 < walk.size()) check(walk[i], walk[i + 1]);
      }
    }
    EXPECT_EQ(batch.stats().fallback_queries, fallbacks);
  }

  RoadNetwork net_;
  std::unique_ptr<DistanceOracle> oracle_;
  std::unique_ptr<DistanceOracle> reference_;
  std::unique_ptr<LastStopBuckets> store_;
};

TEST_P(InsertionCostBatchTest, PrimedLegsMatchOracleBitwiseWithNoFallbacks) {
  InsertionCostBatch batch(net_, oracle_.get());
  Rng rng(251);
  for (int round = 0; round < 15; ++round) {
    const int64_t batches_before = oracle_->batch_queries();
    const int64_t queries_before = oracle_->queries();
    VertexId origin = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    VertexId dest = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    batch.Begin(origin, dest, store_.get());
    // A few candidate walks: taxi location followed by schedule stops.
    std::vector<std::vector<VertexId>> walks;
    for (TaxiId taxi = 0; taxi < 4; ++taxi) {
      std::vector<VertexId> walk;
      int stops = static_cast<int>(rng.NextInt(1, 6));
      for (int s = 0; s < stops; ++s) {
        walk.push_back(VertexId(rng.NextInt(0, net_.num_vertices() - 1)));
      }
      Register(&batch, taxi, walk);
      walks.push_back(std::move(walk));
    }
    const int64_t label_primes = batch.stats().ch_bucket_queries;
    batch.Prime();
    if (GetParam() == OracleBackend::kExact) {
      // One call for the endpoint fans, one for the per-stop fans.
      EXPECT_EQ(oracle_->batch_queries() - batches_before, 2);
    } else {
      // One Prime() answered from labels, without the oracle.
      EXPECT_EQ(batch.stats().ch_bucket_queries - label_primes, 1);
      EXPECT_EQ(oracle_->queries(), queries_before);
    }
    ExpectLegsPrimed(batch, origin, dest, walks);
  }
  EXPECT_EQ(batch.stats().fallback_queries, 0);
  if (GetParam() == OracleBackend::kExact) {
    EXPECT_GT(batch.stats().batch_queries, 0);
    EXPECT_EQ(batch.stats().ch_bucket_queries, 0);
  } else {
    EXPECT_EQ(batch.stats().batch_queries, 0);
    EXPECT_EQ(oracle_->ch_query_stats().point_queries, 0);
    EXPECT_GT(batch.stats().ch_upward_settled, 0);
    EXPECT_GT(store_->stats().label_entries, 0);
  }
}

TEST_P(InsertionCostBatchTest, IncrementalPrimingCoversLaterCandidates) {
  // T-Share's usage pattern: Begin once, then AddCandidate + Prime per
  // candidate, with overlapping stop sets between candidates.
  InsertionCostBatch batch(net_, oracle_.get());
  const VertexId origin = 3;
  const VertexId dest = 90;
  batch.Begin(origin, dest, store_.get());
  const std::vector<std::vector<VertexId>> walks{
      {10, 20, 30},
      {20, 30, 40},  // shares stops with the first, adds a fresh one
      {30, 20},      // no fresh stop, only a new base-adjacent pair
      {3, 90, 3},    // stands on the origin; stops on both endpoints
  };
  // Exact batch calls per Prime: endpoint fans and per-stop fans while a
  // stop is fresh, the per-stop fans alone once none is. The CH answers
  // each Prime from labels, its endpoint searches run by the first.
  const int64_t expected_batches[] = {2, 2, 1, 2};
  for (size_t w = 0; w < walks.size(); ++w) {
    const int64_t before = oracle_->batch_queries();
    const int64_t label_primes = batch.stats().ch_bucket_queries;
    const int64_t settled = batch.stats().ch_upward_settled;
    Register(&batch, TaxiId(w), walks[w]);
    batch.Prime();
    if (GetParam() == OracleBackend::kExact) {
      EXPECT_EQ(oracle_->batch_queries() - before, expected_batches[w])
          << "walk " << w;
    } else {
      EXPECT_EQ(oracle_->batch_queries(), before) << "walk " << w;
      EXPECT_EQ(batch.stats().ch_bucket_queries - label_primes, 1)
          << "walk " << w;
      if (w > 0) {
        EXPECT_EQ(batch.stats().ch_upward_settled, settled) << "walk " << w;
      }
    }
    // A Prime with nothing registered does nothing.
    batch.Prime();
    EXPECT_EQ(batch.stats().ch_bucket_queries - label_primes,
              GetParam() == OracleBackend::kCh ? 1 : 0);
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
