#include "graph/graph_generators.h"

#include <gtest/gtest.h>

namespace mtshare {
namespace {

TEST(GridCityTest, ProducesStronglyConnectedNetwork) {
  GridCityOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  RoadNetwork net = MakeGridCity(opt);
  EXPECT_GT(net.num_vertices(), 100);  // most of 144 kept after SCC cut
  std::vector<int32_t> comp;
  EXPECT_EQ(StronglyConnectedComponents(net, &comp), 1);
}

TEST(GridCityTest, DeterministicForSeed) {
  GridCityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 99;
  RoadNetwork a = MakeGridCity(opt);
  RoadNetwork b = MakeGridCity(opt);
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_TRUE(a.coord(v) == b.coord(v));
  }
}

TEST(GridCityTest, DifferentSeedsDiffer) {
  GridCityOptions a_opt;
  a_opt.seed = 1;
  GridCityOptions b_opt;
  b_opt.seed = 2;
  RoadNetwork a = MakeGridCity(a_opt);
  RoadNetwork b = MakeGridCity(b_opt);
  bool any_diff = a.num_vertices() != b.num_vertices() ||
                  a.num_edges() != b.num_edges();
  if (!any_diff) {
    for (VertexId v = 0; v < a.num_vertices() && !any_diff; ++v) {
      any_diff = !(a.coord(v) == b.coord(v));
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(GridCityTest, RealisticDegreeRange) {
  GridCityOptions opt;
  opt.rows = 20;
  opt.cols = 20;
  RoadNetwork net = MakeGridCity(opt);
  double avg_out = double(net.num_edges()) / net.num_vertices();
  EXPECT_GT(avg_out, 1.5);
  EXPECT_LT(avg_out, 4.5);
}

TEST(GridCityTest, NoOneWayNoDropsKeepsFullGrid) {
  GridCityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.one_way_fraction = 0.0;
  opt.drop_edge_fraction = 0.0;
  RoadNetwork net = MakeGridCity(opt);
  EXPECT_EQ(net.num_vertices(), 100);
  // Full bidirectional grid: 2 * (2 * 10 * 9) edges.
  EXPECT_EQ(net.num_edges(), 360);
}

TEST(RandomGeometricTest, ConnectedAndNonEmpty) {
  RandomGeometricOptions opt;
  opt.num_vertices = 250;
  opt.connect_radius_m = 420.0;  // well above the percolation threshold
  RoadNetwork net = MakeRandomGeometric(opt);
  EXPECT_GT(net.num_vertices(), 150);
  std::vector<int32_t> comp;
  EXPECT_EQ(StronglyConnectedComponents(net, &comp), 1);
}

}  // namespace
}  // namespace mtshare
