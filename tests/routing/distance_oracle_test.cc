#include "routing/distance_oracle.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_generators.h"

namespace mtshare {
namespace {

TEST(DistanceOracleTest, ExactModeMatchesDijkstra) {
  GridCityOptions gopt;
  gopt.rows = 9;
  gopt.cols = 9;
  RoadNetwork net = MakeGridCity(gopt);
  DistanceOracle oracle(net);  // small -> exact
  EXPECT_EQ(oracle.backend(), OracleBackend::kExact);
  DijkstraSearch dijkstra(net);
  Rng rng(91);
  for (int i = 0; i < 50; ++i) {
    VertexId s = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    VertexId t = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    EXPECT_DOUBLE_EQ(oracle.Cost(s, t), dijkstra.Cost(s, t));
  }
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

}  // namespace
}  // namespace mtshare
