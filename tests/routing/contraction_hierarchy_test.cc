#include "routing/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
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

/// A CH oracle over `net`.
DistanceOracle ChOracle(const RoadNetwork& net) {
  OracleOptions opts;
  opts.backend = OracleBackend::kCh;
  return DistanceOracle(net, opts);
}

/// Every point query of a CH oracle over `net` and every PhastRow of its
/// hierarchy equal Dijkstra's.
void ExpectAllPairsMatch(const RoadNetwork& net) {
  DistanceOracle oracle = ChOracle(net);
  const std::vector<std::vector<Seconds>> rows = DijkstraRows(net);
  for (VertexId s = 0; s < net.num_vertices(); ++s) {
    for (VertexId t = 0; t < net.num_vertices(); ++t) {
      ASSERT_EQ(oracle.Cost(s, t), rows[s][t]) << s << "->" << t;
    }
  }
  ExpectPhastRowsMatch(*oracle.ch(), rows);
}

TEST(ContractionHierarchyTest, GridCityAllPairsBitIdentical) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  gopt.one_way_fraction = 0.3;  // asymmetric distances
  gopt.seed = 41;
  ExpectAllPairsMatch(MakeGridCity(gopt));
}

TEST(ContractionHierarchyTest, RandomGeometricAllPairsBitIdentical) {
  RandomGeometricOptions ropt;
  ropt.num_vertices = 120;
  ropt.seed = 43;
  ExpectAllPairsMatch(MakeRandomGeometric(ropt));
}

TEST(ContractionHierarchyTest, TinyWitnessLimitStaysCorrect) {
  // A starved witness search may only ADD redundant shortcuts — distances
  // must not change. Every oracle builds with the default limit, so the
  // limit-1 hierarchy is checked directly: the meet of each pair's two
  // exhaustive upward searches, and every PhastRow.
  GridCityOptions gopt;
  gopt.rows = 7;
  gopt.cols = 7;
  gopt.one_way_fraction = 0.25;
  gopt.seed = 47;
  const RoadNetwork net = MakeGridCity(gopt);
  ChOptions copt;
  copt.witness_settle_limit = 1;
  const ContractionHierarchy ch = ContractionHierarchy::Build(net, copt);
  EXPECT_GT(ch.stats().shortcuts_added,
            ContractionHierarchy::Build(net).stats().shortcuts_added);
  const std::vector<std::vector<Seconds>> rows = DijkstraRows(net);
  UpwardSearch forward(ch);
  UpwardSearch backward(ch);
  for (VertexId s = 0; s < net.num_vertices(); ++s) {
    forward.Run(s, UpwardSearch::kForward, kInfiniteCost);
    for (VertexId t = 0; t < net.num_vertices(); ++t) {
      backward.Run(t, UpwardSearch::kBackward, kInfiniteCost);
      ASSERT_EQ(Meet(forward, backward), rows[s][t]) << s << "->" << t;
    }
  }
  ExpectPhastRowsMatch(ch, rows);
}

/// Runs each case (a, b, t1, t2, t3) as three sources with their targets
/// through Cost() on an oracle on each backend. The pairs overlap every
/// way insertion legs do: t1 repeats under one source, t2 and t3 are
/// shared across sources, b is one source and another's target, and a is
/// queried twice, reaching a itself (a distance-0 pair). Every cost must
/// equal Dijkstra's, kInfiniteCost included. Each pair counts one query;
/// the exact table reads one row per pair and the CH runs one point query,
/// except for a same-vertex pair, which touches neither.
void ExpectPointQueryContract(const RoadNetwork& net,
                              std::span<const std::array<VertexId, 5>> cases) {
  const std::vector<std::vector<Seconds>> rows = DijkstraRows(net);
  OracleOptions exact_opts, ch_opts;
  exact_opts.backend = OracleBackend::kExact;
  ch_opts.backend = OracleBackend::kCh;
  DistanceOracle exact_oracle(net, exact_opts);
  DistanceOracle ch_oracle(net, ch_opts);
  for (const std::array<VertexId, 5>& c : cases) {
    const auto [a, b, t1, t2, t3] = c;
    const std::vector<std::pair<VertexId, std::vector<VertexId>>> sources{
        {a, {t1, t2, t1, b}}, {b, {t2, a, t3}}, {a, {t3, a}}};
    for (DistanceOracle* oracle : {&exact_oracle, &ch_oracle}) {
      const int64_t queries0 = oracle->queries();
      const int64_t rows0 = oracle->row_hits() + oracle->row_misses();
      const ChQueryStats s0 = oracle->ch_query_stats();
      int64_t pairs = 0;
      int64_t same_vertex = 0;
      for (const auto& [source, targets] : sources) {
        for (VertexId t : targets) {
          EXPECT_EQ(oracle->Cost(source, t), rows[source][t])
              << source << "->" << t;
          ++pairs;
          if (source == t) ++same_vertex;
        }
      }
      EXPECT_EQ(oracle->queries() - queries0, pairs);
      const ChQueryStats s1 = oracle->ch_query_stats();
      if (oracle->backend() == OracleBackend::kCh) {
        EXPECT_EQ(s1.point_queries - s0.point_queries, pairs - same_vertex);
        EXPECT_EQ(oracle->row_hits() + oracle->row_misses(), 0);
      } else {
        EXPECT_EQ(oracle->row_hits() + oracle->row_misses() - rows0,
                  pairs - same_vertex);
        EXPECT_EQ(s1.point_queries, 0);
      }
    }
  }
}

/// Two islands plus a one-way bridge 0->4: reachability is asymmetric and
/// partial, and nothing routes back. Built directly (no SCC extraction).
RoadNetwork TwoIslandsWithBridge() {
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
  return builder.Build();
}

TEST(ContractionHierarchyTest, DisconnectedComponentsReportInfinity) {
  RoadNetwork net = TwoIslandsWithBridge();
  DistanceOracle oracle = ChOracle(net);
  const ContractionHierarchy& ch = *oracle.ch();
  const std::vector<std::vector<Seconds>> rows = DijkstraRows(net);
  for (VertexId s = 0; s < net.num_vertices(); ++s) {
    for (VertexId t = 0; t < net.num_vertices(); ++t) {
      EXPECT_EQ(oracle.Cost(s, t), rows[s][t]) << s << "->" << t;
    }
  }
  EXPECT_EQ(oracle.Cost(4, 0), kInfiniteCost);  // bridge is one-way
  EXPECT_LT(oracle.Cost(0, 4), kInfiniteCost);
  ExpectPhastRowsMatch(ch, rows);
  EXPECT_EQ(PhastRow(ch, 4, UpwardSearch::kForward)[0], kInfiniteCost);
  EXPECT_EQ(PhastRow(ch, 0, UpwardSearch::kBackward)[4], kInfiniteCost);
  // Sources mixing reachable and unreachable targets: 4 has targets on
  // island A; 6 reaches neither 3 nor 0.
  const std::array<VertexId, 5> cases[] = {{4, 1, 0, 5, 2}, {0, 6, 7, 3, 5}};
  ExpectPointQueryContract(net, cases);
}

TEST(ContractionHierarchyTest, BucketQueriesMatchPointQueries) {
  GridCityOptions gopt;
  gopt.rows = 10;
  gopt.cols = 10;
  gopt.one_way_fraction = 0.2;
  gopt.seed = 53;
  RoadNetwork net = MakeGridCity(gopt);
  Rng rng(531);
  std::vector<std::array<VertexId, 5>> cases(25);
  for (std::array<VertexId, 5>& c : cases) {
    for (VertexId& v : c) v = VertexId(rng.NextInt(0, net.num_vertices() - 1));
  }
  ExpectPointQueryContract(net, cases);
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
  // A 70x70 city (perfbench's peak_ch) lies above kMaxExactVertices, a
  // 9x9 city below it.
  GridCityOptions gopt;
  gopt.rows = 70;
  gopt.cols = 70;
  RoadNetwork large = MakeGridCity(gopt);
  ASSERT_GT(large.num_vertices(), kMaxExactVertices);
  DistanceOracle ch_oracle(large);
  EXPECT_EQ(ch_oracle.backend(), OracleBackend::kCh);

  gopt.rows = 9;
  gopt.cols = 9;
  RoadNetwork small = MakeGridCity(gopt);
  ASSERT_LE(small.num_vertices(), kMaxExactVertices);
  DistanceOracle exact_oracle(small);
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

  // Both backends are checked against Dijkstra by
  // ExpectPointQueryContract; this pins them against each other.
  Rng rng(611);
  for (int round = 0; round < 30; ++round) {
    VertexId s = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    VertexId t = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    EXPECT_EQ(ch_oracle.Cost(s, t), exact_oracle.Cost(s, t));
  }
  ChQueryStats stats = ch_oracle.ch_query_stats();
  EXPECT_GT(stats.point_queries, 0);
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

  const VertexId sources[] = {0, 5, 9};
  const VertexId targets[] = {3, 7, 11, 20};
  int64_t q0 = oracle.queries();
  for (VertexId s : sources) {
    for (VertexId t : targets) EXPECT_LT(oracle.Cost(s, t), kInfiniteCost);
  }
  const int64_t pairs = int64_t(std::size(sources) * std::size(targets));
  EXPECT_EQ(oracle.queries() - q0, pairs);
  EXPECT_EQ(oracle.ch_query_stats().point_queries, pairs);
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
