#include "routing/dijkstra.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/contraction_hierarchy.h"
#include "routing/upward_search.h"

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

struct WalkCounts {
  int64_t walked = 0;
  int64_t prefixed = 0;
  int64_t unreachable = 0;
};

// FindPathFromRow against FindPath for every target of each source, on the
// source's row built both ways: by PhastRow, as the oracle fills it, and
// by CostsFrom. Vertices, cost bits and validity must all match.
void ExpectWalksMatchFindPath(const RoadNetwork& net,
                              const std::vector<VertexId>& sources,
                              WalkCounts* counts) {
  const ContractionHierarchy ch = ContractionHierarchy::Build(net);
  DijkstraSearch reference(net);
  DijkstraSearch walker(net);
  for (VertexId s : sources) {
    const std::vector<Seconds> phast =
        PhastRow(ch, s, UpwardSearch::kForward);
    const std::vector<Seconds> costs = reference.CostsFrom(s);
    for (const std::vector<Seconds>* row : {&phast, &costs}) {
      for (VertexId t = 0; t < net.num_vertices(); ++t) {
        const Path want = reference.FindPath(s, t);
        const Path got = walker.FindPathFromRow(s, t, *row);
        ASSERT_EQ(got.valid, want.valid) << s << "->" << t;
        ASSERT_EQ(got.vertices, want.vertices) << s << "->" << t;
        ASSERT_EQ(got.cost, want.cost) << s << "->" << t;
        if (!want.valid) {
          ++counts->unreachable;
        } else if (s != t) {
          ++(walker.last_path_prefixed() ? counts->prefixed : counts->walked);
        }
      }
    }
  }
}

std::vector<VertexId> SpreadSources(const RoadNetwork& net, int count,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> sources;
  for (int i = 0; i < count; ++i) {
    sources.push_back(VertexId(rng.NextInt(0, net.num_vertices() - 1)));
  }
  return sources;
}

TEST(RowWalkTest, GridCityWithEqualStreetsMatchesFindPath) {
  // Every street has the same length, so equal-cost tails are everywhere:
  // both walks to the source and walks stopped at a tie must occur.
  GridCityOptions opt;
  opt.rows = 16;
  opt.cols = 16;
  opt.seed = 5;
  RoadNetwork net = MakeGridCity(opt);
  WalkCounts counts;
  ASSERT_NO_FATAL_FAILURE(
      ExpectWalksMatchFindPath(net, SpreadSources(net, 12, 51), &counts));
  EXPECT_GT(counts.walked, 0);
  EXPECT_GT(counts.prefixed, 0);
}

TEST(RowWalkTest, OneWayGridCityMatchesFindPath) {
  GridCityOptions opt;
  opt.rows = 16;
  opt.cols = 16;
  opt.one_way_fraction = 0.5;
  opt.seed = 9;
  RoadNetwork net = MakeGridCity(opt);
  WalkCounts counts;
  ASSERT_NO_FATAL_FAILURE(
      ExpectWalksMatchFindPath(net, SpreadSources(net, 12, 91), &counts));
  EXPECT_GT(counts.walked, 0);
  EXPECT_GT(counts.prefixed, 0);
}

TEST(RowWalkTest, RandomGeometricMatchesFindPath) {
  RandomGeometricOptions opt;
  opt.num_vertices = 300;
  opt.side_m = 3000.0;
  RoadNetwork net = MakeRandomGeometric(opt);
  WalkCounts counts;
  ASSERT_NO_FATAL_FAILURE(
      ExpectWalksMatchFindPath(net, SpreadSources(net, 12, 13), &counts));
  EXPECT_GT(counts.walked, 0);
}

TEST(RowWalkTest, ParallelArcsTiesAndUnreachableTargets) {
  // 0 => 1 by two equal parallel arcs and a slower third; 2 has two tight
  // tails at the same cost (1 and 3); 5 reaches 0 but nothing reaches 5.
  RoadNetwork::Builder b(1.0);
  for (int i = 0; i < 6; ++i) b.AddVertex({10.0 * i, 0});
  b.AddEdge(0, 1, 10);
  b.AddEdge(0, 1, 10);
  b.AddEdge(0, 1, 20);
  b.AddEdge(1, 2, 10);
  b.AddEdge(0, 3, 10);
  b.AddEdge(3, 2, 10);
  b.AddEdge(2, 4, 5);
  b.AddEdge(5, 0, 5);
  RoadNetwork net = b.Build();
  WalkCounts counts;
  ASSERT_NO_FATAL_FAILURE(
      ExpectWalksMatchFindPath(net, {0, 1, 2, 3, 4, 5}, &counts));
  EXPECT_GT(counts.walked, 0);
  EXPECT_GT(counts.prefixed, 0);
  EXPECT_GT(counts.unreachable, 0);

  DijkstraSearch search(net);
  const std::vector<Seconds> row = search.CostsFrom(0);
  // Parallel arcs from one tail are no tie.
  Path p = search.FindPathFromRow(0, 1, row);
  EXPECT_EQ(p.vertices, (std::vector<VertexId>{0, 1}));
  EXPECT_FALSE(search.last_path_prefixed());
  EXPECT_EQ(search.last_settled_count(), 0);
  // Tails 1 and 3 tie at 2: the prefix up to 2 is searched.
  p = search.FindPathFromRow(0, 4, row);
  EXPECT_TRUE(search.last_path_prefixed());
  EXPECT_GT(search.last_settled_count(), 0);
  EXPECT_EQ(p.vertices, search.FindPath(0, 4).vertices);
  EXPECT_EQ(p.cost, 25.0);
  // Unreachable target and source == target behave as FindPath does.
  EXPECT_FALSE(search.FindPathFromRow(0, 5, row).valid);
  p = search.FindPathFromRow(0, 0, row);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.vertices, std::vector<VertexId>{0});
  EXPECT_EQ(p.cost, 0.0);
}

TEST(PathTest, AppendJoinsAtSharedVertex) {
  Path route{{1, 2, 3}, 10.0, true};
  AppendPath(&route, Path{{3, 4}, 5.0, true});
  ASSERT_TRUE(route.valid);
  EXPECT_EQ(route.vertices, (std::vector<VertexId>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(route.cost, 15.0);
}

TEST(PathTest, AppendWithInvalidYieldsInvalid) {
  const Path a{{1, 2}, 10.0, true};
  Path route = a;
  AppendPath(&route, Path::Invalid());
  EXPECT_FALSE(route.valid);
  route = Path::Invalid();
  AppendPath(&route, a);
  EXPECT_FALSE(route.valid);
}

}  // namespace
}  // namespace mtshare
