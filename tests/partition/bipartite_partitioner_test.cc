#include "partition/bipartite_partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "testing/decision_digest.h"

namespace mtshare {
namespace {

RoadNetwork TestNet() {
  GridCityOptions opt;
  opt.rows = 14;
  opt.cols = 14;
  opt.seed = 9;
  return MakeGridCity(opt);
}

// Synthetic history: vertices in the left half send trips to the top-right
// corner, right half to the bottom-left corner — two sharply different
// transition patterns.
std::vector<OdPair> PolarizedTrips(const RoadNetwork& net, int per_vertex) {
  // Find corner-most vertices.
  VertexId top_right = 0;
  VertexId bottom_left = 0;
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    const Point& p = net.coord(v);
    const Point& tr = net.coord(top_right);
    const Point& bl = net.coord(bottom_left);
    if (p.x + p.y > tr.x + tr.y) top_right = v;
    if (p.x + p.y < bl.x + bl.y) bottom_left = v;
  }
  double mid_x = (net.bounds().min.x + net.bounds().max.x) / 2;
  std::vector<OdPair> trips;
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    VertexId dest = net.coord(v).x < mid_x ? top_right : bottom_left;
    if (dest == v) continue;
    for (int i = 0; i < per_vertex; ++i) trips.emplace_back(v, dest);
  }
  return trips;
}

TEST(BipartitePartitionTest, ValidPartitioningStructure) {
  RoadNetwork net = TestNet();
  BipartiteOptions opt;
  opt.kappa = 12;
  opt.kt = 4;
  MapPartitioning p = BipartitePartition(net, PolarizedTrips(net, 3), opt);
  ASSERT_EQ(p.vertex_partition.size(), size_t(net.num_vertices()));
  std::vector<int> seen(net.num_vertices(), 0);
  for (PartitionId pid = 0; pid < p.num_partitions(); ++pid) {
    EXPECT_FALSE(p.partition_vertices[pid].empty());
    for (VertexId v : p.partition_vertices[pid]) {
      EXPECT_EQ(p.vertex_partition[v], pid);
      ++seen[v];
    }
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(BipartitePartitionTest, PartitionCountNearKappa) {
  RoadNetwork net = TestNet();
  BipartiteOptions opt;
  opt.kappa = 12;
  opt.kt = 4;
  MapPartitioning p = BipartitePartition(net, PolarizedTrips(net, 3), opt);
  EXPECT_GE(p.num_partitions(), opt.kappa / 2);
  EXPECT_LE(p.num_partitions(), opt.kappa * 2);
}

TEST(BipartitePartitionTest, SeparatesPolarizedTransitionPatterns) {
  RoadNetwork net = TestNet();
  BipartiteOptions opt;
  opt.kappa = 10;
  opt.kt = 2;
  MapPartitioning p = BipartitePartition(net, PolarizedTrips(net, 5), opt);
  // No partition should straddle the x midline by much: count partitions
  // whose members are mixed across halves.
  double mid_x = (net.bounds().min.x + net.bounds().max.x) / 2;
  int mixed = 0;
  for (PartitionId pid = 0; pid < p.num_partitions(); ++pid) {
    int left = 0;
    int right = 0;
    for (VertexId v : p.partition_vertices[pid]) {
      (net.coord(v).x < mid_x ? left : right)++;
    }
    int minority = std::min(left, right);
    if (minority > static_cast<int>(p.partition_vertices[pid].size()) / 4) {
      ++mixed;
    }
  }
  // Most partitions should be pure given the sharp polarization.
  EXPECT_LE(mixed, p.num_partitions() / 3);
}

TEST(BipartitePartitionTest, DeterministicForSeed) {
  RoadNetwork net = TestNet();
  BipartiteOptions opt;
  opt.kappa = 8;
  opt.kt = 3;
  auto trips = PolarizedTrips(net, 2);
  MapPartitioning a = BipartitePartition(net, trips, opt);
  MapPartitioning b = BipartitePartition(net, trips, opt);
  EXPECT_EQ(a.vertex_partition, b.vertex_partition);
}

TEST(BipartitePartitionTest, WorksWithEmptyHistory) {
  RoadNetwork net = TestNet();
  BipartiteOptions opt;
  opt.kappa = 8;
  opt.kt = 3;
  MapPartitioning p = BipartitePartition(net, {}, opt);
  EXPECT_GT(p.num_partitions(), 0);
  // With uniform transition rows the result degenerates gracefully to a
  // geographic clustering; structure must still be valid.
  for (PartitionId pid = 0; pid < p.num_partitions(); ++pid) {
    EXPECT_FALSE(p.partition_vertices[pid].empty());
  }
}

TEST(BipartitePartitionTest, PartitionsAreGeographicallyCompact) {
  RoadNetwork net = TestNet();
  BipartiteOptions opt;
  opt.kappa = 12;
  opt.kt = 4;
  MapPartitioning p = BipartitePartition(net, PolarizedTrips(net, 3), opt);
  // Average partition radius should be far below the city radius.
  double city_radius =
      std::max(net.bounds().Width(), net.bounds().Height()) / 2;
  double avg_radius = 0;
  for (double r : p.radius_m) avg_radius += r;
  avg_radius /= p.num_partitions();
  EXPECT_LT(avg_radius, city_radius * 0.6);
}

// Seeded history on a 20x20 grid: each vertex that departs at all sends
// 1-6 trips, most of them to one of four hotspots picked by its quadrant,
// the rest anywhere. `departing_share` of the vertices depart; the others
// have no trip and share TransitionModel's city-wide prior row.
std::vector<OdPair> HotspotTrips(const RoadNetwork& net,
                                 double departing_share, uint64_t seed) {
  Rng rng(seed);
  const int64_t n = net.num_vertices();
  std::vector<VertexId> hotspots;
  for (int h = 0; h < 4; ++h) {
    hotspots.push_back(static_cast<VertexId>(rng.NextInt(0, n - 1)));
  }
  const Point mid{(net.bounds().min.x + net.bounds().max.x) / 2,
                  (net.bounds().min.y + net.bounds().max.y) / 2};
  std::vector<OdPair> trips;
  for (VertexId v = 0; v < n; ++v) {
    if (rng.NextDouble() >= departing_share) continue;
    const Point& p = net.coord(v);
    const int quadrant = (p.x < mid.x ? 0 : 1) + (p.y < mid.y ? 0 : 2);
    const int64_t count = rng.NextInt(1, 6);
    for (int64_t t = 0; t < count; ++t) {
      VertexId dest = rng.NextDouble() < 0.7
                          ? hotspots[(quadrant + 1) % 4]
                          : static_cast<VertexId>(rng.NextInt(0, n - 1));
      trips.emplace_back(v, dest);
    }
  }
  return trips;
}

uint64_t PartitionDigest(const MapPartitioning& p) {
  Fnv1a fnv;
  fnv.Add(static_cast<uint64_t>(p.num_partitions()));
  for (PartitionId pid : p.vertex_partition) {
    fnv.Add(static_cast<uint64_t>(pid));
  }
  for (VertexId v : p.landmarks) fnv.Add(static_cast<uint64_t>(v));
  return fnv.value();
}

int64_t VerticesWithoutTrips(const RoadNetwork& net,
                             const std::vector<OdPair>& trips) {
  std::vector<bool> departs(net.num_vertices(), false);
  for (const OdPair& trip : trips) departs[trip.first] = true;
  return std::count(departs.begin(), departs.end(), false);
}

// Pins the whole partition (every vertex's partition and every landmark)
// on two cities: one where many vertices share the prior row, so the
// transition k-means meets many identical rows, and one where nearly
// every vertex has its own history. The partition is otherwise pinned only
// through the decision goldens.
TEST(BipartitePartitionTest, DigestIsPinned) {
  GridCityOptions city;
  city.rows = 20;
  city.cols = 20;
  city.seed = 31;
  RoadNetwork net = MakeGridCity(city);
  BipartiteOptions opt;
  opt.kappa = 30;
  opt.kt = 6;
  opt.seed = 5;

  std::vector<OdPair> sparse = HotspotTrips(net, 0.5, 101);
  ASSERT_GE(3 * VerticesWithoutTrips(net, sparse), net.num_vertices());
  std::vector<OdPair> dense = HotspotTrips(net, 1.0, 103);
  ASSERT_LE(20 * VerticesWithoutTrips(net, dense), net.num_vertices());

  EXPECT_EQ(PartitionDigest(BipartitePartition(net, sparse, opt)),
            0xc5f09750a05ab3f5ull)
      << "trip-less vertices share the prior row";
  EXPECT_EQ(PartitionDigest(BipartitePartition(net, dense, opt)),
            0x5f2489fb5c699623ull)
      << "nearly every vertex has trips";
}

}  // namespace
}  // namespace mtshare
