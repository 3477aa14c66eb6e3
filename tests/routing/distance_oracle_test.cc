#include "routing/distance_oracle.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_generators.h"
#include "routing/dijkstra.h"

namespace mtshare {
namespace {

TEST(DistanceOracleTest, ExactModeMatchesDijkstra) {
  // The table's rows come from the hierarchy (PhastRow), so Dijkstra is
  // the independent reference: every pair, bit for bit, on an asymmetric
  // network.
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  gopt.one_way_fraction = 0.3;
  gopt.seed = 91;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);  // small -> exact
  EXPECT_EQ(oracle.backend(), OracleBackend::kExact);
  DijkstraSearch dijkstra(net);
  for (VertexId s = 0; s < net.num_vertices(); ++s) {
    const std::vector<Seconds> row = dijkstra.CostsFrom(s);
    for (VertexId t = 0; t < net.num_vertices(); ++t) {
      EXPECT_EQ(oracle.Cost(s, t), row[t]) << s << "->" << t;
    }
  }
  EXPECT_EQ(oracle.row_misses(), net.num_vertices());
}

TEST(DistanceOracleTest, ExactModeOwnsTheHierarchy) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  ASSERT_EQ(oracle.backend(), OracleBackend::kExact);
  // The hierarchy exists, and is counted, before any row is filled.
  ASSERT_NE(oracle.ch(), nullptr);
  EXPECT_EQ(oracle.ch()->num_vertices(), net.num_vertices());
  EXPECT_EQ(oracle.MemoryBytes(), oracle.ch()->MemoryBytes());
  EXPECT_EQ(oracle.ch_build_stats().shortcuts_added,
            oracle.ch()->stats().shortcuts_added);

  // One miss per fill, and a fill ticks no CH query counter.
  oracle.Cost(0, 1);
  oracle.Cost(0, 2);
  EXPECT_EQ(oracle.row_misses(), 1);
  EXPECT_EQ(oracle.row_hits(), 1);
  oracle.Cost(3, 1);
  EXPECT_EQ(oracle.row_misses(), 2);
  EXPECT_EQ(oracle.MemoryBytes(),
            oracle.ch()->MemoryBytes() +
                2 * size_t(net.num_vertices()) * sizeof(Seconds));
  const ChQueryStats stats = oracle.ch_query_stats();
  EXPECT_EQ(stats.point_queries, 0);
  EXPECT_EQ(stats.upward_settled, 0);
}

TEST(DistanceOracleTest, RowReuseAvoidsRecomputation) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  for (VertexId t = 0; t < net.num_vertices(); ++t) oracle.Cost(0, t);
  EXPECT_EQ(oracle.row_misses(), 1);
  EXPECT_EQ(oracle.queries(), net.num_vertices());
}

TEST(DistanceOracleTest, SelfCostIsZeroWithoutRowFetch) {
  GridCityOptions gopt;
  gopt.rows = 6;
  gopt.cols = 6;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  EXPECT_DOUBLE_EQ(oracle.Cost(5, 5), 0.0);
  EXPECT_EQ(oracle.row_misses(), 0);
}

TEST(DistanceOracleTest, MemoryGrowsWithRows) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);
  size_t before = oracle.MemoryBytes();
  oracle.Cost(0, 1);
  EXPECT_GT(oracle.MemoryBytes(), before);
}

TEST(DistanceOracleTest, ResidentRowReadsFilledRowsOnly) {
  GridCityOptions gopt;
  gopt.rows = 8;
  gopt.cols = 8;
  RoadNetwork net = MakeGridCity(gopt);
  OracleOptions oopt;
  oopt.backend = OracleBackend::kExact;
  DistanceOracle exact(net, oopt);
  // Absent until a query fills it; reading fills nothing and counts
  // nothing.
  EXPECT_EQ(exact.ResidentRow(0), nullptr);
  EXPECT_EQ(exact.row_misses(), 0);
  exact.Cost(0, 5);
  const std::vector<Seconds>* row = exact.ResidentRow(0);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(*row, DijkstraSearch(net).CostsFrom(0));
  EXPECT_EQ(exact.ResidentRow(1), nullptr);
  EXPECT_EQ(exact.queries(), 1);
  EXPECT_EQ(exact.row_misses(), 1);
  EXPECT_EQ(exact.row_hits(), 0);

  // The CH backend keeps no rows.
  oopt.backend = OracleBackend::kCh;
  DistanceOracle ch(net, oopt);
  ch.Cost(0, 5);
  EXPECT_EQ(ch.ResidentRow(0), nullptr);
}

}  // namespace
}  // namespace mtshare
