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
  /// o -> d, equals the reference bit for bit, without a fallback. On the
  /// exact table each leg is one oracle query (a table read); on the CH it
  /// is primed, so reading it calls no oracle.
  void ExpectLegsPrimed(const InsertionCostBatch& batch, VertexId origin,
                        VertexId dest,
                        const std::vector<std::vector<VertexId>>& walks) {
    const int64_t fallbacks = batch.stats().fallback_queries;
    const int64_t queries = oracle_->queries();
    int64_t legs = 0;
    auto check = [&](VertexId a, VertexId b) {
      EXPECT_EQ(batch.Cost(a, b), reference_->Cost(a, b))
          << a << "->" << b << " backend=" << OracleBackendName(GetParam());
      ++legs;
    };
    check(origin, dest);
    for (const std::vector<VertexId>& walk : walks) {
      check(walk[0], origin);
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
    EXPECT_EQ(oracle_->queries() - queries,
              GetParam() == OracleBackend::kExact ? legs : 0);
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
    // Registering and priming call no oracle: the exact table primes
    // nothing, and the CH answers one Prime() from labels.
    EXPECT_EQ(oracle_->queries(), queries_before);
    EXPECT_EQ(batch.stats().ch_bucket_queries - label_primes,
              GetParam() == OracleBackend::kCh ? 1 : 0);
    ExpectLegsPrimed(batch, origin, dest, walks);
  }
  EXPECT_EQ(batch.stats().fallback_queries, 0);
  if (GetParam() == OracleBackend::kExact) {
    EXPECT_EQ(batch.stats().ch_upward_settled, 0);
  } else {
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
  // The CH answers each Prime from labels, its endpoint searches run by
  // the first; the exact table primes nothing. Neither calls the oracle.
  for (size_t w = 0; w < walks.size(); ++w) {
    const int64_t queries = oracle_->queries();
    const int64_t label_primes = batch.stats().ch_bucket_queries;
    const int64_t settled = batch.stats().ch_upward_settled;
    Register(&batch, TaxiId(w), walks[w]);
    batch.Prime();
    EXPECT_EQ(oracle_->queries(), queries) << "walk " << w;
    if (GetParam() == OracleBackend::kCh) {
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
