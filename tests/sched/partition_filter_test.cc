#include "sched/partition_filter.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph_generators.h"

namespace mtshare {
namespace {

class PartitionFilterTest : public ::testing::Test {
 protected:
  PartitionFilterTest() {
    GridCityOptions opt;
    opt.rows = 20;
    opt.cols = 20;
    opt.seed = 11;
    net_ = MakeGridCity(opt);
    partitioning_ = GridPartition(net_, 25);
    lg_ = std::make_unique<LandmarkGraph>(net_, partitioning_);
  }

  VertexId CornerVertex(bool max_x, bool max_y) const {
    VertexId best = 0;
    for (VertexId v = 0; v < net_.num_vertices(); ++v) {
      double sx = max_x ? net_.coord(v).x : -net_.coord(v).x;
      double sy = max_y ? net_.coord(v).y : -net_.coord(v).y;
      double bx = max_x ? net_.coord(best).x : -net_.coord(best).x;
      double by = max_y ? net_.coord(best).y : -net_.coord(best).y;
      if (sx + sy > bx + by) best = v;
    }
    return best;
  }

  RoadNetwork net_;
  MapPartitioning partitioning_;
  std::unique_ptr<LandmarkGraph> lg_;
};

TEST_F(PartitionFilterTest, EndpointsAlwaysRetained) {
  PartitionFilter filter(net_, partitioning_, *lg_, 0.707);
  VertexId a = CornerVertex(false, false);
  VertexId b = CornerVertex(true, true);
  auto kept = filter.Filter(a, b);
  PartitionId pa = partitioning_.PartitionOf(a);
  PartitionId pb = partitioning_.PartitionOf(b);
  EXPECT_NE(std::find(kept.begin(), kept.end(), pa), kept.end());
  EXPECT_NE(std::find(kept.begin(), kept.end(), pb), kept.end());
}

TEST_F(PartitionFilterTest, IntraPartitionLegKeepsOnlyThatPartition) {
  PartitionFilter filter(net_, partitioning_, *lg_, 0.707);
  // Find two distinct vertices in the same partition.
  const auto& members = partitioning_.partition_vertices[0];
  ASSERT_GE(members.size(), 2u);
  auto kept = filter.Filter(members[0], members[1]);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 0);
}

TEST_F(PartitionFilterTest, PrunesSubstantiallyOnDiagonalLeg) {
  PartitionFilter filter(net_, partitioning_, *lg_, 0.707);
  VertexId a = CornerVertex(false, false);
  VertexId b = CornerVertex(true, true);
  auto kept = filter.Filter(a, b);
  // Some pruning must happen (opposite-direction partitions fail the
  // direction rule).
  EXPECT_LT(static_cast<int32_t>(kept.size()),
            partitioning_.num_partitions());
  EXPECT_GE(kept.size(), 2u);
}

TEST_F(PartitionFilterTest, BackwardPartitionsFailDirectionRule) {
  PartitionFilter filter(net_, partitioning_, *lg_, 0.707);
  // Leg from the SW corner to the map center: NE-most partitions past the
  // center may stay (cost rule), but the partition at the far SW->NE
  // *opposite* corner of the leg origin... verify the partition containing
  // the NE corner is excluded for a SW-center leg that stops mid-map.
  VertexId a = CornerVertex(false, false);
  // Mid-map vertex: closest to centroid of everything.
  Point mid{(net_.bounds().min.x + net_.bounds().max.x) / 2,
            (net_.bounds().min.y + net_.bounds().max.y) / 2};
  VertexId m = 0;
  for (VertexId v = 0; v < net_.num_vertices(); ++v) {
    if (DistanceSquared(net_.coord(v), mid) <
        DistanceSquared(net_.coord(m), mid)) {
      m = v;
    }
  }
  auto kept = filter.Filter(m, a);  // heading SW from the center
  // The NE-corner partition lies in the opposite direction; must be gone.
  PartitionId ne = partitioning_.PartitionOf(CornerVertex(true, true));
  EXPECT_EQ(std::find(kept.begin(), kept.end(), ne), kept.end());
}

TEST_F(PartitionFilterTest, LooserLambdaKeepsMore) {
  PartitionFilter tight(net_, partitioning_, *lg_, 0.9);
  PartitionFilter loose(net_, partitioning_, *lg_, 0.0);
  VertexId a = CornerVertex(false, false);
  VertexId b = CornerVertex(true, true);
  EXPECT_LE(tight.Filter(a, b).size(), loose.Filter(a, b).size());
}

TEST_F(PartitionFilterTest, MaskCoversExactlyKeptPartitions) {
  PartitionFilter filter(net_, partitioning_, *lg_, 0.707);
  VertexId a = CornerVertex(false, false);
  VertexId b = CornerVertex(true, true);
  auto kept = filter.Filter(a, b);
  std::vector<uint8_t> mask(net_.num_vertices(), 0);
  filter.AddToMask(kept, &mask);
  size_t expected = 0;
  for (PartitionId p : kept) {
    expected += partitioning_.partition_vertices[p].size();
  }
  size_t got = 0;
  for (uint8_t m : mask) got += m;
  EXPECT_EQ(got, expected);
  EXPECT_NEAR(filter.RetainedVertexFraction(kept),
              double(expected) / net_.num_vertices(), 1e-12);
}

TEST(PartitionFilterCraftedTest, DirectionAndCostRulesOnLineCity) {
  // Hand-built line city where both Algorithm 2 rules have exact, known
  // outcomes: 20 vertices on a line, 100 s per hop, four partitions of
  // five consecutive vertices (landmark = middle vertex by medoid).
  RoadNetwork::Builder b(1.0);
  for (int i = 0; i < 20; ++i) b.AddVertex({100.0 * i, 0.0});
  for (int i = 0; i + 1 < 20; ++i) {
    b.AddEdge(i, i + 1, 100.0);
    b.AddEdge(i + 1, i, 100.0);
  }
  RoadNetwork net = b.Build();

  MapPartitioning parts;
  parts.vertex_partition.resize(20);
  parts.partition_vertices.resize(4);
  for (VertexId v = 0; v < 20; ++v) {
    parts.vertex_partition[v] = v / 5;
    parts.partition_vertices[v / 5].push_back(v);
  }
  FinalizeGeometry(net, &parts);
  LandmarkGraph lg(net, parts);
  PartitionFilter filter(net, parts, lg, /*lambda=*/0.5);
  ASSERT_EQ(PartitionFilter::kEpsilon, 1.0);

  auto contains = [](const std::vector<PartitionId>& kept, PartitionId p) {
    return std::find(kept.begin(), kept.end(), p) != kept.end();
  };

  // Eastbound leg partition 0 -> 2. Partition 1 lies on the way: direction
  // cosine exactly 1 and zero extra landmark cost, so both rules pass.
  // Partition 3 is past the destination: direction passes (cosine 1) and
  // the detour doubles the landmark cost — 2000 s via l3 vs 1000 s direct,
  // exactly the (1 + epsilon) bound, which admits it.
  std::vector<PartitionId> east = filter.Filter(2, 12);
  EXPECT_TRUE(contains(east, 0));
  EXPECT_TRUE(contains(east, 1));
  EXPECT_TRUE(contains(east, 2));
  EXPECT_TRUE(contains(east, 3));

  // Westbound leg partition 2 -> 0. Partition 3 now lies *behind* the
  // travel direction (cosine -1 < lambda): the DIRECTION rule alone drops
  // it.
  std::vector<PartitionId> west = filter.Filter(12, 2);
  EXPECT_TRUE(contains(west, 1));
  EXPECT_FALSE(contains(west, 3));

  // Short leg partition 0 -> 1. Partition 2 passes direction but triples
  // the landmark cost (1500 s via l2 vs 500 s direct, above the 1000 s
  // bound): the COST rule alone drops it. Partition 3 costs 2500 s.
  std::vector<PartitionId> short_leg = filter.Filter(2, 7);
  EXPECT_FALSE(contains(short_leg, 2));
  EXPECT_FALSE(contains(short_leg, 3));
}

}  // namespace
}  // namespace mtshare
