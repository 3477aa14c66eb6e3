#include "routing/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/ch_query.h"
#include "routing/dijkstra.h"
#include "routing/distance_oracle.h"
#include "routing/upward_search.h"

namespace mtshare {
namespace {

// The CH subsystem's contract is BIT-IDENTICAL costs, not approximate
// ones: arc costs live on the dyadic grid (QuantizeTravelCost), so every
// path sum — however the CH associates it through shortcuts and bucket
// meetings — is exact. Each comparison below is EXPECT_EQ on doubles.

/// Dijkstra's row from every source: the independent reference.
std::vector<std::vector<Seconds>> DijkstraRows(const RoadNetwork& net) {
  DijkstraSearch dijkstra(net);
  std::vector<std::vector<Seconds>> rows(net.num_vertices());
  for (VertexId s = 0; s < net.num_vertices(); ++s) {
    rows[s] = dijkstra.CostsFrom(s);
  }
  return rows;
}

/// Every PhastRow in both directions, kInfiniteCost entries included: the
/// forward row of each source is Dijkstra's row, the backward row of each
/// target is Dijkstra's column.
void ExpectPhastRowsMatch(const ContractionHierarchy& ch,
                          const std::vector<std::vector<Seconds>>& rows) {
  const VertexId n = ch.num_vertices();
  for (VertexId s = 0; s < n; ++s) {
    const std::vector<Seconds> forward =
        PhastRow(ch, s, UpwardSearch::kForward);
    ASSERT_EQ(forward.size(), size_t(n));
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(forward[t], rows[s][t]) << "forward " << s << "->" << t;
    }
  }
  for (VertexId t = 0; t < n; ++t) {
    const std::vector<Seconds> backward =
        PhastRow(ch, t, UpwardSearch::kBackward);
    ASSERT_EQ(backward.size(), size_t(n));
    for (VertexId s = 0; s < n; ++s) {
      ASSERT_EQ(backward[s], rows[s][t]) << "backward " << s << "->" << t;
    }
  }
}

void ExpectAllPairsMatch(const RoadNetwork& net, const ChOptions& copt) {
  ContractionHierarchy ch = ContractionHierarchy::Build(net, copt);
  ChQuery query(ch);
  const std::vector<std::vector<Seconds>> rows = DijkstraRows(net);
  for (VertexId s = 0; s < net.num_vertices(); ++s) {
    for (VertexId t = 0; t < net.num_vertices(); ++t) {
      ASSERT_EQ(query.Cost(s, t), rows[s][t]) << s << "->" << t;
    }
  }
  ExpectPhastRowsMatch(ch, rows);
}

TEST(ContractionHierarchyTest, GridCityAllPairsBitIdentical) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  gopt.one_way_fraction = 0.3;  // asymmetric distances
  gopt.seed = 41;
  ExpectAllPairsMatch(MakeGridCity(gopt), ChOptions{});
}

TEST(ContractionHierarchyTest, RandomGeometricAllPairsBitIdentical) {
  RandomGeometricOptions ropt;
  ropt.num_vertices = 120;
  ropt.seed = 43;
  ExpectAllPairsMatch(MakeRandomGeometric(ropt), ChOptions{});
}

TEST(ContractionHierarchyTest, TinyWitnessLimitStaysCorrect) {
  // A starved witness search may only ADD redundant shortcuts — distances
  // must not change.
  GridCityOptions gopt;
  gopt.rows = 7;
  gopt.cols = 7;
  gopt.one_way_fraction = 0.25;
  gopt.seed = 47;
  ChOptions copt;
  copt.witness_settle_limit = 1;
  ExpectAllPairsMatch(MakeGridCity(gopt), copt);
}

TEST(ContractionHierarchyTest, DisconnectedComponentsReportInfinity) {
  // Two islands plus a one-way bridge 0->4: reachability is asymmetric and
  // partial, and nothing routes back. Built directly (no SCC extraction).
  RoadNetwork::Builder builder(10.0);
  for (int i = 0; i < 8; ++i) {
    builder.AddVertex(Point{double(i % 4) * 100.0, double(i / 4) * 100.0});
  }
  // Island A: 0-1-2-3 cycle (both ways). Island B: 4-5-6-7 cycle.
  for (VertexId v = 0; v < 4; ++v) {
    builder.AddBidirectionalEdge(v, (v + 1) % 4, 130.0);
    builder.AddBidirectionalEdge(4 + v, 4 + (v + 1) % 4, 170.0);
  }
  builder.AddEdge(0, 4, 500.0);  // one-way bridge
  RoadNetwork net = builder.Build();

  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  ChQuery query(ch);
  const std::vector<std::vector<Seconds>> rows = DijkstraRows(net);
  for (VertexId s = 0; s < net.num_vertices(); ++s) {
    for (VertexId t = 0; t < net.num_vertices(); ++t) {
      EXPECT_EQ(query.Cost(s, t), rows[s][t]) << s << "->" << t;
    }
  }
  EXPECT_EQ(query.Cost(4, 0), kInfiniteCost);  // bridge is one-way
  EXPECT_LT(query.Cost(0, 4), kInfiniteCost);
  ExpectPhastRowsMatch(ch, rows);
  EXPECT_EQ(PhastRow(ch, 4, UpwardSearch::kForward)[0], kInfiniteCost);
  EXPECT_EQ(PhastRow(ch, 0, UpwardSearch::kBackward)[4], kInfiniteCost);
}

TEST(ContractionHierarchyTest, BucketQueriesMatchPointQueries) {
  GridCityOptions gopt;
  gopt.rows = 10;
  gopt.cols = 10;
  gopt.one_way_fraction = 0.2;
  gopt.seed = 53;
  RoadNetwork net = MakeGridCity(gopt);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  ChQuery query(ch);
  DijkstraSearch dijkstra(net);

  Rng rng(531);
  std::vector<VertexId> sources, targets;
  std::vector<Seconds> many, matrix;
  for (int round = 0; round < 25; ++round) {
    sources.clear();
    targets.clear();
    for (int i = 0; i < 5; ++i) {
      sources.push_back(VertexId(rng.NextInt(0, net.num_vertices() - 1)));
    }
    for (int i = 0; i < 9; ++i) {
      targets.push_back(VertexId(rng.NextInt(0, net.num_vertices() - 1)));
    }
    targets.push_back(targets[0]);   // duplicate target
    targets.push_back(sources[0]);   // a source as target (distance 0 cell)

    query.CostManyToMany({&sources[0], 1}, targets, &many);
    ASSERT_EQ(many.size(), targets.size());
    std::vector<Seconds> row = dijkstra.CostsFrom(sources[0]);
    for (size_t i = 0; i < targets.size(); ++i) {
      EXPECT_EQ(many[i], row[targets[i]]) << "one source " << targets[i];
    }

    query.CostManyToMany(sources, targets, &matrix);
    ASSERT_EQ(matrix.size(), sources.size() * targets.size());
    for (size_t s = 0; s < sources.size(); ++s) {
      std::vector<Seconds> srow = dijkstra.CostsFrom(sources[s]);
      for (size_t t = 0; t < targets.size(); ++t) {
        EXPECT_EQ(matrix[s * targets.size() + t], srow[targets[t]])
            << sources[s] << "->" << targets[t];
      }
    }
  }
  EXPECT_GT(query.stats().bucket_queries, 0);
  EXPECT_GT(query.stats().bucket_entries, 0);
}

TEST(ContractionHierarchyTest, StatsAndMemoryArePopulated) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  RoadNetwork net = MakeGridCity(gopt);
  ContractionHierarchy ch = ContractionHierarchy::Build(net);
  EXPECT_GE(ch.stats().shortcuts_added, 0);
  EXPECT_GE(ch.stats().preprocessing_ms, 0.0);
  // The search graphs partition the core arcs: every original arc (plus
  // shortcuts) shows up in exactly one of up/down, so the index is at
  // least as large as the rank array.
  EXPECT_GE(ch.MemoryBytes(), size_t(net.num_vertices()) * sizeof(int32_t));
}

TEST(DistanceOracleChBackendTest, AutoSelectsChAboveExactThreshold) {
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions small;
  small.max_exact_vertices = 10;  // auto -> CH
  DistanceOracle ch_oracle(net, small);
  EXPECT_EQ(ch_oracle.backend(), OracleBackend::kCh);
  DistanceOracle exact_oracle(net);  // auto -> exact (81 <= 4200)
  EXPECT_EQ(exact_oracle.backend(), OracleBackend::kExact);
}

TEST(DistanceOracleChBackendTest, MatchesExactBackendBitwise) {
  GridCityOptions gopt;
  gopt.rows = 11;
  gopt.cols = 11;
  gopt.one_way_fraction = 0.25;
  gopt.seed = 61;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions copt;
  copt.backend = OracleBackend::kCh;
  DistanceOracle ch_oracle(net, copt);
  DistanceOracle exact_oracle(net);

  Rng rng(611);
  std::vector<VertexId> targets;
  std::vector<Seconds> got, want;
  for (int round = 0; round < 30; ++round) {
    VertexId s = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    VertexId t = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    EXPECT_EQ(ch_oracle.Cost(s, t), exact_oracle.Cost(s, t));
    targets.clear();
    for (int i = 0; i < 7; ++i) {
      targets.push_back(VertexId(rng.NextInt(0, net.num_vertices() - 1)));
    }
    ch_oracle.CostManyToMany({&s, 1}, targets, &got);
    exact_oracle.CostManyToMany({&s, 1}, targets, &want);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
  }
  ChQueryStats stats = ch_oracle.ch_query_stats();
  EXPECT_GT(stats.point_queries, 0);
  EXPECT_GT(stats.bucket_queries, 0);
  EXPECT_EQ(ch_oracle.row_hits(), 0);
  EXPECT_EQ(ch_oracle.row_misses(), 0);
}

TEST(DistanceOracleChBackendTest, ManyToManyCountsAndMemory) {
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions copt;
  copt.backend = OracleBackend::kCh;
  DistanceOracle oracle(net, copt);
  // Index memory is visible before any query runs.
  size_t idle_bytes = oracle.MemoryBytes();
  EXPECT_GT(idle_bytes, 0u);

  std::vector<VertexId> sources{0, 5, 9};
  std::vector<VertexId> targets{3, 7, 11, 20};
  std::vector<Seconds> matrix;
  int64_t q0 = oracle.queries();
  oracle.CostManyToMany(sources, targets, &matrix);
  EXPECT_EQ(matrix.size(), sources.size() * targets.size());
  EXPECT_EQ(oracle.queries() - q0, int64_t(sources.size()));
  EXPECT_EQ(oracle.batch_queries(), 1);
  // Pooled query engines are part of the oracle's resident footprint.
  EXPECT_GT(oracle.MemoryBytes(), idle_bytes);
}

TEST(QuantizeTravelCostTest, SnapsToDyadicGridAndStaysPositive) {
  // Quantized costs are exact multiples of 2^-20 s ...
  Seconds q = QuantizeTravelCost(123.456789);
  EXPECT_EQ(q * kCostQuantumScale, std::round(q * kCostQuantumScale));
  EXPECT_NEAR(q, 123.456789, 1.0 / kCostQuantumScale);
  // ... idempotent ...
  EXPECT_EQ(QuantizeTravelCost(q), q);
  // ... and never zero, however short the arc.
  EXPECT_GT(QuantizeTravelCost(1e-12), 0.0);
}

}  // namespace
}  // namespace mtshare
