#include "traffic/congestion.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/dijkstra.h"

namespace mtshare {
namespace {

TEST(CongestionProfileTest, DefaultIsFlatUnity) {
  CongestionProfile flat;
  for (int h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(flat.Multiplier(h * 3600.0 + 123.0), 1.0);
  }
}

TEST(CongestionProfileTest, WorkdayPeaksAtRushHours) {
  CongestionProfile rush = CongestionProfile::Workday(1.0);
  double morning = rush.Multiplier(8.5 * 3600.0);   // hour-8 anchor
  double night = rush.Multiplier(3.5 * 3600.0);
  EXPECT_NEAR(morning, 1.8, 1e-9);
  EXPECT_NEAR(night, 1.0, 1e-9);
  // Evening peak too.
  EXPECT_GT(rush.Multiplier(18.5 * 3600.0), 1.7);
}

TEST(CongestionProfileTest, InterpolatesBetweenHours) {
  CongestionProfile rush = CongestionProfile::Workday(1.0);
  // Between the hour-7 (+35%) and hour-8 (+80%) anchors.
  double mid = rush.Multiplier(8.0 * 3600.0);
  EXPECT_GT(mid, 1.35);
  EXPECT_LT(mid, 1.80);
}

TEST(CongestionProfileTest, AmplitudeZeroIsFreeFlow) {
  CongestionProfile none = CongestionProfile::Workday(0.0);
  for (int h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(none.Multiplier(h * 3600.0 + 123.0), 1.0);
  }
}

TEST(CongestionProfileTest, WrapsAcrossMidnight) {
  CongestionProfile rush = CongestionProfile::Workday(1.0);
  EXPECT_NEAR(rush.Multiplier(0.0), rush.Multiplier(86400.0), 1e-12);
  EXPECT_NEAR(rush.Multiplier(-3600.0), rush.Multiplier(23 * 3600.0), 1e-12);
}

class TimeDependentTest : public ::testing::Test {
 protected:
  TimeDependentTest() {
    GridCityOptions opt;
    opt.rows = 12;
    opt.cols = 12;
    opt.seed = 9;
    net_ = MakeGridCity(opt);
  }
  RoadNetwork net_;
};

TEST_F(TimeDependentTest, FlatProfileMatchesStaticDijkstra) {
  CongestionProfile flat;
  TimeDependentDijkstra td(net_, flat);
  DijkstraSearch reference(net_);
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    VertexId s = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    VertexId t = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    EXPECT_NEAR(td.Cost(s, t, 12345.0), reference.Cost(s, t), 1e-9);
  }
}

TEST_F(TimeDependentTest, RushHourSlowsTrips) {
  CongestionProfile rush = CongestionProfile::Workday(1.0);
  TimeDependentDijkstra td(net_, rush);
  VertexId s = 0;
  VertexId t = net_.num_vertices() - 1;
  Seconds at_rush = td.Cost(s, t, 8.5 * 3600.0);
  Seconds at_night = td.Cost(s, t, 3.0 * 3600.0);
  EXPECT_GT(at_rush, at_night * 1.3);
}

TEST_F(TimeDependentTest, FifoPropertyHolds) {
  // Departing later never arrives earlier.
  CongestionProfile rush = CongestionProfile::Workday(1.0);
  TimeDependentDijkstra td(net_, rush);
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    VertexId s = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    VertexId t = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    Seconds dep = rng.NextUniform(6 * 3600.0, 10 * 3600.0);
    Seconds arr1 = td.EarliestArrival(s, t, dep);
    Seconds arr2 = td.EarliestArrival(s, t, dep + 120.0);
    EXPECT_GE(arr2 + 1e-6, arr1) << s << "->" << t << " dep " << dep;
  }
}

TEST_F(TimeDependentTest, PathMatchesArrivalWhenRetimed) {
  CongestionProfile rush = CongestionProfile::Workday(0.7);
  TimeDependentDijkstra td(net_, rush);
  VertexId s = 3;
  VertexId t = net_.num_vertices() - 5;
  Seconds dep = 7.8 * 3600.0;
  Path p = td.FindPath(s, t, dep);
  ASSERT_TRUE(p.valid);
  Seconds retimed = td.RetimePath(p.vertices, dep);
  EXPECT_NEAR(retimed - dep, p.cost, 1e-6);
}

TEST_F(TimeDependentTest, StaticRouteDegradesUnderCongestion) {
  // A statically planned (free-flow) route re-timed under rush traffic is
  // never faster than the congestion-aware route — the audit the ablation
  // bench runs at scale.
  CongestionProfile rush = CongestionProfile::Workday(1.0);
  TimeDependentDijkstra td(net_, rush);
  DijkstraSearch static_search(net_);
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    VertexId s = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    VertexId t = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    if (s == t) continue;
    Seconds dep = 8.2 * 3600.0;
    Path static_path = static_search.FindPath(s, t);
    ASSERT_TRUE(static_path.valid);
    Seconds static_retimed = td.RetimePath(static_path.vertices, dep);
    Seconds aware = td.EarliestArrival(s, t, dep);
    EXPECT_GE(static_retimed + 1e-6, aware);
  }
}

TEST_F(TimeDependentTest, TrivialAndUnreachable) {
  RoadNetwork::Builder b(1.0);
  b.AddVertex({0, 0});
  b.AddVertex({10, 0});
  b.AddEdge(0, 1, 10);
  RoadNetwork tiny = b.Build();
  CongestionProfile flat;
  TimeDependentDijkstra td(tiny, flat);
  EXPECT_DOUBLE_EQ(td.EarliestArrival(0, 0, 500.0), 500.0);
  EXPECT_EQ(td.Cost(1, 0, 0.0), kInfiniteCost);
}

}  // namespace
}  // namespace mtshare
