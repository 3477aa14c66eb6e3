#include "spatial/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/random.h"
#include "graph/graph_generators.h"

namespace mtshare {
namespace {

class GridIndexTest : public ::testing::Test {
 protected:
  GridIndexTest() {
    GridCityOptions opt;
    opt.rows = 15;
    opt.cols = 15;
    opt.seed = 3;
    net_ = MakeGridCity(opt);
    index_ = std::make_unique<GridIndex>(net_, 150.0);
  }

  RoadNetwork net_;
  std::unique_ptr<GridIndex> index_;
};

TEST_F(GridIndexTest, NearestMatchesBruteForce) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Point q{rng.NextUniform(-200, 2000), rng.NextUniform(-200, 2000)};
    VertexId got = index_->NearestVertex(q);
    ASSERT_NE(got, kInvalidVertex);
    double best = std::numeric_limits<double>::infinity();
    VertexId expect = kInvalidVertex;
    for (VertexId v = 0; v < net_.num_vertices(); ++v) {
      double d = DistanceSquared(net_.coord(v), q);
      if (d < best) {
        best = d;
        expect = v;
      }
    }
    EXPECT_DOUBLE_EQ(DistanceSquared(net_.coord(got), q), best)
        << "trial " << trial << " got " << got << " expect " << expect;
  }
}

TEST_F(GridIndexTest, RadiusMatchesBruteForce) {
  Rng rng(6);
  for (int trial = 0; trial < 25; ++trial) {
    Point q{rng.NextUniform(0, 1800), rng.NextUniform(0, 1800)};
    double radius = rng.NextUniform(50, 600);
    auto got = index_->VerticesInRadius(q, radius);
    std::sort(got.begin(), got.end());
    std::vector<VertexId> expect;
    for (VertexId v = 0; v < net_.num_vertices(); ++v) {
      if (Distance(net_.coord(v), q) <= radius) expect.push_back(v);
    }
    EXPECT_EQ(got, expect) << "trial " << trial;
  }
}

TEST_F(GridIndexTest, CellsInRadiusCoverQueryDisk) {
  Point q{900, 900};
  auto cells = index_->CellsInRadius(q, 400.0);
  // Every vertex within the radius must live in one of the returned cells.
  auto vertices = index_->VerticesInRadius(q, 400.0);
  for (VertexId v : vertices) {
    int32_t cell = index_->CellOf(net_.coord(v));
    EXPECT_NE(std::find(cells.begin(), cells.end(), cell), cells.end());
  }
}

TEST_F(GridIndexTest, MemoryAccounted) { EXPECT_GT(index_->MemoryBytes(), 0u); }

TEST(DynamicGridIndexTest, UpdateMoveRemove) {
  BoundingBox box{{0, 0}, {1000, 1000}};
  DynamicGridIndex idx(box, 100.0);
  idx.Update(1, {50, 50});
  idx.Update(2, {500, 500});
  EXPECT_TRUE(idx.Contains(1));
  EXPECT_EQ(idx.size(), 2);

  auto near_origin = idx.ObjectsInRadius({0, 0}, 120.0);
  ASSERT_EQ(near_origin.size(), 1u);
  EXPECT_EQ(near_origin[0], 1);

  idx.Update(1, {900, 900});  // move across cells
  EXPECT_TRUE(idx.ObjectsInRadius({0, 0}, 120.0).empty());
  auto near_corner = idx.ObjectsInRadius({1000, 1000}, 200.0);
  ASSERT_EQ(near_corner.size(), 1u);
  EXPECT_EQ(near_corner[0], 1);

  idx.Remove(1);
  EXPECT_FALSE(idx.Contains(1));
  EXPECT_EQ(idx.size(), 1);
  idx.Remove(1);  // double remove is a no-op
  EXPECT_EQ(idx.size(), 1);
}

TEST(DynamicGridIndexTest, UpdateWithinSameCellKeepsObjectFindable) {
  BoundingBox box{{0, 0}, {1000, 1000}};
  DynamicGridIndex idx(box, 100.0);
  idx.Update(7, {10, 10});
  idx.Update(7, {20, 20});  // same cell
  auto got = idx.ObjectsInRadius({15, 15}, 30.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 7);
  // Exactly once (no duplicate bucket entries).
  got = idx.ObjectsInRadius({0, 0}, 2000.0);
  EXPECT_EQ(got.size(), 1u);
}

TEST(DynamicGridIndexTest, PointsOutsideBoundsClampSafely) {
  BoundingBox box{{0, 0}, {100, 100}};
  DynamicGridIndex idx(box, 10.0);
  idx.Update(1, {-50, 500});  // outside declared bounds
  EXPECT_TRUE(idx.Contains(1));
  auto found = idx.ObjectsInRadius({-50, 500}, 1.0);
  ASSERT_EQ(found.size(), 1u);
}

}  // namespace
}  // namespace mtshare
