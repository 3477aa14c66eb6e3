#include "sched/partition_filter.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "partition/bipartite_partitioner.h"

namespace mtshare {
namespace {

/// The filter's kept list for the leg a -> b.
std::vector<PartitionId> Kept(const PartitionFilter& filter, VertexId a,
                              VertexId b) {
  std::vector<PartitionId> kept;
  filter.Filter(a, b, &kept);
  return kept;
}

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
  auto kept = Kept(filter, a, b);
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
  auto kept = Kept(filter, members[0], members[1]);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 0);
}

TEST_F(PartitionFilterTest, PrunesSubstantiallyOnDiagonalLeg) {
  PartitionFilter filter(net_, partitioning_, *lg_, 0.707);
  VertexId a = CornerVertex(false, false);
  VertexId b = CornerVertex(true, true);
  auto kept = Kept(filter, a, b);
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
  auto kept = Kept(filter, m, a);  // heading SW from the center
  // The NE-corner partition lies in the opposite direction; must be gone.
  PartitionId ne = partitioning_.PartitionOf(CornerVertex(true, true));
  EXPECT_EQ(std::find(kept.begin(), kept.end(), ne), kept.end());
}

TEST_F(PartitionFilterTest, LooserLambdaKeepsMore) {
  PartitionFilter tight(net_, partitioning_, *lg_, 0.9);
  PartitionFilter loose(net_, partitioning_, *lg_, 0.0);
  VertexId a = CornerVertex(false, false);
  VertexId b = CornerVertex(true, true);
  EXPECT_LE(Kept(tight, a, b).size(), Kept(loose, a, b).size());
}

TEST_F(PartitionFilterTest, MaskCoversExactlyKeptPartitions) {
  PartitionFilter filter(net_, partitioning_, *lg_, 0.707);
  VertexId a = CornerVertex(false, false);
  VertexId b = CornerVertex(true, true);
  auto kept = Kept(filter, a, b);
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

/// PartitionFilter::Filter as it was before the landmark graph stored its
/// displacement norms: DirectionCosine on the landmark coordinates, two
/// square roots per partition. The reference for the stored-norm filter.
std::vector<PartitionId> SquareRootFilter(const RoadNetwork& network,
                                          const MapPartitioning& partitioning,
                                          const LandmarkGraph& landmarks,
                                          double lambda, VertexId from,
                                          VertexId to) {
  const PartitionId pz = partitioning.PartitionOf(from);
  const PartitionId pz1 = partitioning.PartitionOf(to);
  std::vector<PartitionId> kept;
  kept.push_back(pz);
  if (pz1 != pz) kept.push_back(pz1);
  if (pz == pz1) return kept;
  const Point& a = network.coord(partitioning.landmarks[pz]);
  const Point& b = network.coord(partitioning.landmarks[pz1]);
  const Point leg_dir{b.x - a.x, b.y - a.y};
  const Seconds direct = landmarks.LandmarkCost(pz, pz1);
  for (PartitionId p = 0; p < partitioning.num_partitions(); ++p) {
    if (p == pz || p == pz1) continue;
    const Point& c = network.coord(partitioning.landmarks[p]);
    const Point via_dir{c.x - a.x, c.y - a.y};
    if (DirectionCosine(via_dir, leg_dir) < lambda) continue;
    const Seconds via =
        landmarks.LandmarkCost(pz, p) + landmarks.LandmarkCost(p, pz1);
    if (via > (1.0 + PartitionFilter::kEpsilon) * direct) continue;
    kept.push_back(p);
  }
  return kept;
}

TEST(PartitionFilterReferenceTest, StoredNormsKeepTheSquareRootFiltersList) {
  // On a grid partitioning and on a bipartite one (irregular landmarks,
  // as production's), at four thresholds, every leg's kept list equals the
  // reference's, filled into one reused vector.
  GridCityOptions opt;
  opt.rows = 24;
  opt.cols = 24;
  opt.seed = 31;
  const RoadNetwork net = MakeGridCity(opt);
  Rng rng(37);
  std::vector<OdPair> trips;
  for (int i = 0; i < 4000; ++i) {
    trips.emplace_back(VertexId(rng.NextInt(0, net.num_vertices() - 1)),
                       VertexId(rng.NextInt(0, net.num_vertices() - 1)));
  }
  BipartiteOptions bopt;
  bopt.kappa = 40;
  bopt.kt = 8;
  const MapPartitioning grid = GridPartition(net, 36);
  const MapPartitioning bipartite = BipartitePartition(net, trips, bopt);
  int64_t legs = 0;
  for (const MapPartitioning* parts : {&grid, &bipartite}) {
    const LandmarkGraph lg(net, *parts);
    for (const double lambda : {0.0, 0.5, 0.707, 0.9}) {
      const PartitionFilter filter(net, *parts, lg, lambda);
      std::vector<PartitionId> kept;
      for (int i = 0; i < 300; ++i) {
        const VertexId a = VertexId(rng.NextInt(0, net.num_vertices() - 1));
        const VertexId b = VertexId(rng.NextInt(0, net.num_vertices() - 1));
        filter.Filter(a, b, &kept);
        ASSERT_EQ(kept, SquareRootFilter(net, *parts, lg, lambda, a, b))
            << a << "->" << b << " lambda " << lambda;
        ++legs;
      }
    }
  }
  EXPECT_EQ(legs, 2400);
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
  std::vector<PartitionId> east = Kept(filter, 2, 12);
  EXPECT_TRUE(contains(east, 0));
  EXPECT_TRUE(contains(east, 1));
  EXPECT_TRUE(contains(east, 2));
  EXPECT_TRUE(contains(east, 3));

  // Westbound leg partition 2 -> 0. Partition 3 now lies *behind* the
  // travel direction (cosine -1 < lambda): the DIRECTION rule alone drops
  // it.
  std::vector<PartitionId> west = Kept(filter, 12, 2);
  EXPECT_TRUE(contains(west, 1));
  EXPECT_FALSE(contains(west, 3));

  // Short leg partition 0 -> 1. Partition 2 passes direction but triples
  // the landmark cost (1500 s via l2 vs 500 s direct, above the 1000 s
  // bound): the COST rule alone drops it. Partition 3 costs 2500 s.
  std::vector<PartitionId> short_leg = Kept(filter, 2, 7);
  EXPECT_FALSE(contains(short_leg, 2));
  EXPECT_FALSE(contains(short_leg, 3));
}

}  // namespace
}  // namespace mtshare
