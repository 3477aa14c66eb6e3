#include "routing/dijkstra.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_generators.h"

namespace mtshare {
namespace {

// 0 -> 1 (10s), 1 -> 2 (10s), 0 -> 2 (25s), 2 -> 0 (5s).
RoadNetwork MakeTriangle() {
  RoadNetwork::Builder b(1.0);  // 1 m/s: cost == length
  b.AddVertex({0, 0});
  b.AddVertex({10, 0});
  b.AddVertex({20, 0});
  b.AddEdge(0, 1, 10);
  b.AddEdge(1, 2, 10);
  b.AddEdge(0, 2, 25);
  b.AddEdge(2, 0, 5);
  return b.Build();
}

TEST(DijkstraTest, PicksCheaperTwoHopPath) {
  RoadNetwork net = MakeTriangle();
  DijkstraSearch search(net);
  EXPECT_DOUBLE_EQ(search.Cost(0, 2), 20.0);
  Path p = search.FindPath(0, 2);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.vertices, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(p.cost, 20.0);
}

TEST(DijkstraTest, SourceEqualsTarget) {
  RoadNetwork net = MakeTriangle();
  DijkstraSearch search(net);
  EXPECT_DOUBLE_EQ(search.Cost(1, 1), 0.0);
  Path p = search.FindPath(1, 1);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.vertices, std::vector<VertexId>{1});
}

TEST(DijkstraTest, UnreachableIsInfinite) {
  RoadNetwork::Builder b(1.0);
  b.AddVertex({0, 0});
  b.AddVertex({10, 0});
  b.AddEdge(0, 1, 10);  // no way back
  RoadNetwork net = b.Build();
  DijkstraSearch search(net);
  EXPECT_EQ(search.Cost(1, 0), kInfiniteCost);
  EXPECT_FALSE(search.FindPath(1, 0).valid);
}

TEST(DijkstraTest, RepeatedQueriesReuseBuffersCorrectly) {
  GridCityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  RoadNetwork net = MakeGridCity(opt);
  DijkstraSearch reused(net);
  Rng rng(77);
  for (int i = 0; i < 30; ++i) {
    VertexId s = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    VertexId t = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    DijkstraSearch fresh(net);
    EXPECT_DOUBLE_EQ(reused.Cost(s, t), fresh.Cost(s, t)) << s << "->" << t;
  }
}

TEST(DijkstraTest, CostsFromMatchesPairwise) {
  GridCityOptions opt;
  opt.rows = 7;
  opt.cols = 7;
  RoadNetwork net = MakeGridCity(opt);
  DijkstraSearch search(net);
  auto row = search.CostsFrom(0);
  ASSERT_EQ(row.size(), size_t(net.num_vertices()));
  for (VertexId t = 0; t < net.num_vertices(); t += 7) {
    EXPECT_DOUBLE_EQ(row[t], search.Cost(0, t));
  }
}

TEST(DijkstraTest, AllowedMaskRestrictsExpansion) {
  RoadNetwork net = MakeTriangle();
  DijkstraSearch search(net);
  // Forbid vertex 1: only the direct 0->2 edge remains.
  std::vector<uint8_t> allowed = {1, 0, 1};
  SearchOptions opt;
  opt.allowed_vertices = &allowed;
  EXPECT_DOUBLE_EQ(search.Cost(0, 2, opt), 25.0);
  Path p = search.FindPath(0, 2, opt);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.vertices, (std::vector<VertexId>{0, 2}));
}

TEST(DijkstraTest, MaskedSearchSettlesFewerVertices) {
  GridCityOptions gopt;
  gopt.rows = 16;
  gopt.cols = 16;
  RoadNetwork net = MakeGridCity(gopt);
  DijkstraSearch search(net);
  VertexId s = 0;
  VertexId t = net.num_vertices() - 1;
  search.Cost(s, t);
  int64_t full = search.last_settled_count();

  // Allow only a band of vertices around the straight line s-t.
  std::vector<uint8_t> allowed(net.num_vertices(), 0);
  Point a = net.coord(s);
  Point b = net.coord(t);
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    Point p = net.coord(v);
    // Distance from p to segment ab, cheap band test via cross product.
    double cross = std::abs((b.x - a.x) * (p.y - a.y) -
                            (b.y - a.y) * (p.x - a.x)) /
                   (Distance(a, b) + 1e-9);
    if (cross < 500.0) allowed[v] = 1;
  }
  SearchOptions opt;
  opt.allowed_vertices = &allowed;
  Seconds masked_cost = search.Cost(s, t, opt);
  EXPECT_LT(search.last_settled_count(), full);
  EXPECT_GE(masked_cost, search.Cost(s, t) - 1e-9);  // mask can't beat optimum
}

TEST(DijkstraTest, VertexWeightObjectiveMinimizesWeights) {
  // Square: 0->1->3 and 0->2->3, same travel costs, but vertex 1 is heavy.
  RoadNetwork::Builder b(1.0);
  b.AddVertex({0, 0});
  b.AddVertex({10, 10});
  b.AddVertex({10, -10});
  b.AddVertex({20, 0});
  b.AddEdge(0, 1, 10);
  b.AddEdge(1, 3, 10);
  b.AddEdge(0, 2, 10);
  b.AddEdge(2, 3, 10);
  RoadNetwork net = b.Build();
  DijkstraSearch search(net);
  std::vector<double> weights = {0.0, 100.0, 1.0, 0.0};
  SearchOptions opt;
  opt.vertex_weights = &weights;
  Path p = search.FindPath(0, 3, opt);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.vertices, (std::vector<VertexId>{0, 2, 3}));
  // Path cost still reports true travel seconds.
  EXPECT_DOUBLE_EQ(p.cost, 20.0);
}

TEST(PathTest, ConcatJoinsAtSharedVertex) {
  Path a{{1, 2, 3}, 10.0, true};
  Path b{{3, 4}, 5.0, true};
  Path c = ConcatPaths(a, b);
  ASSERT_TRUE(c.valid);
  EXPECT_EQ(c.vertices, (std::vector<VertexId>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(c.cost, 15.0);
}

TEST(PathTest, ConcatWithInvalidYieldsInvalid) {
  Path a{{1, 2}, 10.0, true};
  EXPECT_FALSE(ConcatPaths(a, Path::Invalid()).valid);
  EXPECT_FALSE(ConcatPaths(Path::Invalid(), a).valid);
}

}  // namespace
}  // namespace mtshare
