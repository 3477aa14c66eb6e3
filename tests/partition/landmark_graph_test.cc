#include "partition/landmark_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "graph/graph_generators.h"
#include "routing/dijkstra.h"

namespace mtshare {
namespace {

class LandmarkGraphTest : public ::testing::Test {
 protected:
  LandmarkGraphTest() {
    GridCityOptions opt;
    opt.rows = 12;
    opt.cols = 12;
    opt.seed = 3;
    net_ = MakeGridCity(opt);
    partitioning_ = GridPartition(net_, 9);
    lg_ = std::make_unique<LandmarkGraph>(net_, partitioning_);
  }

  RoadNetwork net_;
  MapPartitioning partitioning_;
  std::unique_ptr<LandmarkGraph> lg_;
};

TEST_F(LandmarkGraphTest, SelfCostIsZero) {
  for (PartitionId p = 0; p < lg_->num_partitions(); ++p) {
    EXPECT_DOUBLE_EQ(lg_->LandmarkCost(p, p), 0.0);
  }
}

TEST_F(LandmarkGraphTest, CostsMatchDijkstraBetweenLandmarks) {
  DijkstraSearch search(net_);
  for (PartitionId a = 0; a < lg_->num_partitions(); ++a) {
    for (PartitionId b = 0; b < lg_->num_partitions(); b += 2) {
      EXPECT_DOUBLE_EQ(
          lg_->LandmarkCost(a, b),
          search.Cost(partitioning_.landmarks[a], partitioning_.landmarks[b]));
    }
  }
}

TEST_F(LandmarkGraphTest, AdjacencyIsSymmetric) {
  for (PartitionId a = 0; a < lg_->num_partitions(); ++a) {
    for (PartitionId b : lg_->Adjacency()[a]) {
      EXPECT_TRUE(lg_->Adjacent(b, a)) << a << " ~ " << b;
    }
  }
}

TEST_F(LandmarkGraphTest, NoSelfAdjacency) {
  for (PartitionId a = 0; a < lg_->num_partitions(); ++a) {
    EXPECT_FALSE(lg_->Adjacent(a, a));
  }
}

TEST_F(LandmarkGraphTest, EveryPartitionHasANeighborOnConnectedCity) {
  for (PartitionId a = 0; a < lg_->num_partitions(); ++a) {
    EXPECT_FALSE(lg_->Adjacency()[a].empty()) << "partition " << a;
  }
}

TEST_F(LandmarkGraphTest, AdjacencyImpliedByCrossingEdges) {
  // Pick any cross-partition road edge and verify adjacency holds.
  int checked = 0;
  for (VertexId v = 0; v < net_.num_vertices() && checked < 50; ++v) {
    PartitionId pv = partitioning_.PartitionOf(v);
    for (const Arc& arc : net_.OutArcs(v)) {
      PartitionId pw = partitioning_.PartitionOf(arc.head);
      if (pv != pw) {
        EXPECT_TRUE(lg_->Adjacent(pv, pw));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST_F(LandmarkGraphTest, TriangleInequalityOverLandmarks) {
  // cost(a,c) <= cost(a,b) + cost(b,c): true since costs are real
  // shortest-path costs on the road network.
  int32_t k = lg_->num_partitions();
  for (PartitionId a = 0; a < k; ++a) {
    for (PartitionId b = 0; b < k; ++b) {
      for (PartitionId c = 0; c < k; c += 3) {
        EXPECT_LE(lg_->LandmarkCost(a, c),
                  lg_->LandmarkCost(a, b) + lg_->LandmarkCost(b, c) + 1e-9);
      }
    }
  }
}

TEST_F(LandmarkGraphTest, LowerBoundIsAdmissibleOnRandomPairs) {
  // The candidate-pruning contract: LowerBound(a, b) <= true cost, always —
  // an inadmissible bound would silently change matching results. Sampled
  // over random pairs, including same-partition and same-vertex pairs.
  DijkstraSearch search(net_);
  Rng rng(77);
  int nontrivial = 0;
  for (int i = 0; i < 400; ++i) {
    VertexId a = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    VertexId b = VertexId(rng.NextInt(0, net_.num_vertices() - 1));
    Seconds lb = lg_->LowerBound(a, b);
    EXPECT_GE(lb, 0.0) << a << "->" << b;
    Seconds exact = search.Cost(a, b);
    EXPECT_LE(lb, exact + 1e-9) << a << "->" << b;
    if (lb > 0.0) ++nontrivial;
  }
  // The bound must actually bite somewhere, or pruning is a no-op.
  EXPECT_GT(nontrivial, 0);
}

TEST_F(LandmarkGraphTest, LowerBoundIsZeroForSameVertex) {
  for (VertexId v = 0; v < net_.num_vertices(); v += 17) {
    EXPECT_DOUBLE_EQ(lg_->LowerBound(v, v), 0.0);
  }
}

TEST_F(LandmarkGraphTest, LowerBoundAdmissibleOnOneWayNetwork) {
  // Asymmetric network: d(a,b) != d(b,a), so the from/to landmark tables
  // must be genuinely directional (a reverse-Dijkstra bug would surface as
  // an inadmissible bound here).
  GridCityOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  opt.one_way_fraction = 0.5;
  opt.seed = 11;
  RoadNetwork net = MakeGridCity(opt);
  MapPartitioning parts = GridPartition(net, 9);
  LandmarkGraph lg(net, parts);
  DijkstraSearch search(net);
  Rng rng(78);
  for (int i = 0; i < 300; ++i) {
    VertexId a = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    VertexId b = VertexId(rng.NextInt(0, net.num_vertices() - 1));
    EXPECT_LE(lg.LowerBound(a, b), search.Cost(a, b) + 1e-9)
        << a << "->" << b;
  }
}

TEST_F(LandmarkGraphTest, BoundsEqualTheirFormulasOnDijkstraRows) {
  // The landmark rows come from the hierarchy (PhastRow), so Dijkstra is
  // the independent reference. Both bounds, for every pair of a one-way
  // grid, equal their formulas evaluated on Dijkstra's rows bit for bit;
  // they drive lb_pruned and ellipse_pruned, so this pins those counts.
  // Both constructors are checked: over a hierarchy built inside, and over
  // one passed in, as MTShareSystem passes its oracle's.
  GridCityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.one_way_fraction = 0.4;
  opt.seed = 13;
  RoadNetwork net = MakeGridCity(opt);
  MapPartitioning parts = GridPartition(net, 9);
  const ContractionHierarchy ch = ContractionHierarchy::Build(net);
  const LandmarkGraph built_inside(net, parts);
  const LandmarkGraph passed_in(net, parts, ch);

  DijkstraSearch dijkstra(net);
  std::vector<std::vector<Seconds>> d(net.num_vertices());
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    d[v] = dijkstra.CostsFrom(v);
  }
  auto landmark = [&](VertexId v) {
    return parts.landmarks[parts.PartitionOf(v)];
  };
  int64_t lb_positive = 0;
  for (const LandmarkGraph* lg : {&built_inside, &passed_in}) {
    for (PartitionId p = 0; p < lg->num_partitions(); ++p) {
      for (PartitionId q = 0; q < lg->num_partitions(); ++q) {
        ASSERT_EQ(lg->LandmarkCost(p, q),
                  d[parts.landmarks[p]][parts.landmarks[q]]);
      }
    }
    for (VertexId a = 0; a < net.num_vertices(); ++a) {
      for (VertexId b = 0; b < net.num_vertices(); ++b) {
        const Seconds ll = d[landmark(a)][landmark(b)];
        const Seconds fa = d[landmark(a)][a];
        const Seconds tb = d[b][landmark(b)];
        const Seconds ta = d[a][landmark(a)];
        const Seconds fb = d[landmark(b)][b];
        Seconds lb = 0.0;
        if (ll < kInfiniteCost && fa < kInfiniteCost && tb < kInfiniteCost) {
          lb = std::max(0.0, ll - fa - tb);
        }
        const Seconds ub =
            ll < kInfiniteCost && ta < kInfiniteCost && fb < kInfiniteCost
                ? ta + ll + fb
                : kInfiniteCost;
        ASSERT_EQ(lg->LowerBound(a, b), lb) << a << "->" << b;
        ASSERT_EQ(lg->UpperBound(a, b), ub) << a << "->" << b;
        lb_positive += lb > 0.0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(lb_positive, 0);  // the bound bites somewhere
}

TEST_F(LandmarkGraphTest, StoredNormsGiveDirectionCosineBitForBit) {
  // Partition filtering and Algorithm 4 test landmark displacements
  // against a direction through the stored norms (CosineFromNorms)
  // instead of DirectionCosine's two square roots. For every landmark
  // pair, over directions that are zero, axis-aligned, and at angles whose
  // cosine is within 1e-12 of lambda, both must give the same bits, so
  // every `< lambda` test agrees.
  GridCityOptions opt;
  opt.rows = 20;
  opt.cols = 20;
  opt.seed = 29;
  const RoadNetwork net = MakeGridCity(opt);
  const MapPartitioning parts = GridPartition(net, 49);
  const LandmarkGraph lg(net, parts);
  const double lambda = 0.707;
  int64_t near_below = 0;
  int64_t near_above = 0;
  for (PartitionId p = 0; p < lg.num_partitions(); ++p) {
    for (PartitionId q = 0; q < lg.num_partitions(); ++q) {
      const Point& a = net.coord(parts.landmarks[p]);
      const Point& b = net.coord(parts.landmarks[q]);
      const Point d{b.x - a.x, b.y - a.y};
      ASSERT_EQ(lg.Displacement(p, q).x, d.x);
      ASSERT_EQ(lg.Displacement(p, q).y, d.y);
      ASSERT_EQ(lg.DisplacementNorm(p, q), std::sqrt(d.x * d.x + d.y * d.y));
      std::vector<Point> directions = {{0, 0},  {1, 0},   {-1, 0},
                                       {0, 1},  {0, -1},  {250, 0},
                                       {0, -3.5}};
      for (const double e : {-1e-12, -1e-13, 0.0, 1e-13, 1e-12}) {
        const double angle = std::acos(lambda + e);
        for (const double turn : {angle, -angle}) {
          const double c = std::cos(turn);
          const double s = std::sin(turn);
          directions.push_back(
              Point{1.7 * (d.x * c - d.y * s), 1.7 * (d.x * s + d.y * c)});
        }
      }
      for (const Point& dir : directions) {
        const double want = DirectionCosine(d, dir);
        const double got = CosineFromNorms(lg.Displacement(p, q),
                                           lg.DisplacementNorm(p, q), dir,
                                           VectorNorm(dir));
        ASSERT_EQ(got, want) << p << "->" << q;
        ASSERT_EQ(got < lambda, want < lambda) << p << "->" << q;
        if (std::abs(want - lambda) <= 1e-11) {
          ++(want < lambda ? near_below : near_above);
        }
      }
    }
  }
  // The near-lambda directions land on both sides of the threshold.
  EXPECT_GT(near_below, 1000);
  EXPECT_GT(near_above, 1000);
}

TEST_F(LandmarkGraphTest, MemoryAccounting) {
  // The cost table and the displacement-norm table.
  EXPECT_GE(lg_->MemoryBytes(),
            2 * size_t(lg_->num_partitions()) * lg_->num_partitions() *
                sizeof(Seconds));
}

}  // namespace
}  // namespace mtshare
