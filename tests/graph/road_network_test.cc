#include "graph/road_network.h"

#include <gtest/gtest.h>

namespace mtshare {
namespace {

// Small diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, plus back edge 3 -> 0.
RoadNetwork MakeDiamond() {
  RoadNetwork::Builder b(10.0);  // 10 m/s
  VertexId v0 = b.AddVertex({0, 0});
  VertexId v1 = b.AddVertex({100, 100});
  VertexId v2 = b.AddVertex({100, -100});
  VertexId v3 = b.AddVertex({200, 0});
  b.AddEdge(v0, v1, 150.0);
  b.AddEdge(v1, v3, 150.0);
  b.AddEdge(v0, v2, 140.0);
  b.AddEdge(v2, v3, 140.0);
  b.AddEdge(v3, v0, 210.0);
  return b.Build();
}

TEST(RoadNetworkTest, CountsAndCoords) {
  RoadNetwork net = MakeDiamond();
  EXPECT_EQ(net.num_vertices(), 4);
  EXPECT_EQ(net.num_edges(), 5);
  EXPECT_DOUBLE_EQ(net.coord(3).x, 200.0);
}

TEST(RoadNetworkTest, ForwardAdjacency) {
  RoadNetwork net = MakeDiamond();
  auto arcs = net.OutArcs(0);
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_TRUE((arcs[0].head == 1 && arcs[1].head == 2) ||
              (arcs[0].head == 2 && arcs[1].head == 1));
}

TEST(RoadNetworkTest, ReverseAdjacency) {
  RoadNetwork net = MakeDiamond();
  auto arcs = net.InArcs(3);
  ASSERT_EQ(arcs.size(), 2u);
  // InArcs heads are the tails of the incoming edges.
  EXPECT_TRUE((arcs[0].head == 1 && arcs[1].head == 2) ||
              (arcs[0].head == 2 && arcs[1].head == 1));
}

TEST(RoadNetworkTest, EdgeCostFromSpeed) {
  RoadNetwork net = MakeDiamond();
  auto arcs = net.OutArcs(0);
  for (const Arc& a : arcs) {
    EXPECT_DOUBLE_EQ(a.cost, a.length_m / 10.0);
  }
}

TEST(RoadNetworkTest, SpeedFactorAcceleratesEdge) {
  RoadNetwork::Builder b(10.0);
  VertexId u = b.AddVertex({0, 0});
  VertexId v = b.AddVertex({100, 0});
  b.AddEdge(u, v, 100.0, 2.0);
  RoadNetwork net = b.Build();
  EXPECT_DOUBLE_EQ(net.OutArcs(u)[0].cost, 5.0);
}

TEST(RoadNetworkTest, BoundsCoverAllVertices) {
  RoadNetwork net = MakeDiamond();
  EXPECT_DOUBLE_EQ(net.bounds().min.x, 0.0);
  EXPECT_DOUBLE_EQ(net.bounds().max.x, 200.0);
  EXPECT_DOUBLE_EQ(net.bounds().min.y, -100.0);
  EXPECT_DOUBLE_EQ(net.bounds().max.y, 100.0);
  EXPECT_TRUE(net.bounds().Contains({50, 50}));
  EXPECT_FALSE(net.bounds().Contains({-1, 0}));
}

TEST(SccTest, IdentifiesComponents) {
  // Two 2-cycles joined by a one-way edge: {0,1} and {2,3}.
  RoadNetwork::Builder b;
  for (int i = 0; i < 4; ++i) b.AddVertex({double(i), 0});
  b.AddEdge(0, 1, 10);
  b.AddEdge(1, 0, 10);
  b.AddEdge(2, 3, 10);
  b.AddEdge(3, 2, 10);
  b.AddEdge(1, 2, 10);
  RoadNetwork net = b.Build();
  std::vector<int32_t> comp;
  EXPECT_EQ(StronglyConnectedComponents(net, &comp), 2);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(SccTest, ExtractLargestKeepsBiggerComponent) {
  RoadNetwork::Builder b;
  for (int i = 0; i < 5; ++i) b.AddVertex({double(i), 0});
  // Component A: 0<->1<->2 (3 vertices), component B: 3<->4.
  b.AddEdge(0, 1, 10);
  b.AddEdge(1, 0, 10);
  b.AddEdge(1, 2, 10);
  b.AddEdge(2, 1, 10);
  b.AddEdge(3, 4, 10);
  b.AddEdge(4, 3, 10);
  b.AddEdge(2, 3, 10);  // one-way bridge
  RoadNetwork net = b.Build();
  std::vector<VertexId> mapping;
  RoadNetwork scc = ExtractLargestScc(net, &mapping);
  EXPECT_EQ(scc.num_vertices(), 3);
  EXPECT_NE(mapping[0], kInvalidVertex);
  EXPECT_EQ(mapping[3], kInvalidVertex);
  EXPECT_EQ(mapping[4], kInvalidVertex);
}

TEST(SccTest, PreservesEdgeCostsThroughExtraction) {
  RoadNetwork::Builder b(10.0);
  VertexId u = b.AddVertex({0, 0});
  VertexId v = b.AddVertex({100, 0});
  b.AddEdge(u, v, 100.0, 2.0);
  b.AddEdge(v, u, 100.0, 1.0);
  RoadNetwork net = b.Build();
  RoadNetwork scc = ExtractLargestScc(net);
  ASSERT_EQ(scc.num_vertices(), 2);
  double c01 = scc.OutArcs(0)[0].cost;
  double c10 = scc.OutArcs(1)[0].cost;
  EXPECT_NEAR(std::min(c01, c10), 5.0, 1e-9);
  EXPECT_NEAR(std::max(c01, c10), 10.0, 1e-9);
}

TEST(RoadNetworkTest, MemoryBytesNonZero) {
  EXPECT_GT(MakeDiamond().MemoryBytes(), 0u);
}

}  // namespace
}  // namespace mtshare
