#include "clustering/kmeans.h"

#include <gtest/gtest.h>

#include <set>

namespace mtshare {
namespace {

// Three tight 2-d blobs far apart.
std::vector<double> ThreeBlobs(int per_blob, Rng& rng) {
  std::vector<double> data;
  const double centers[3][2] = {{0, 0}, {100, 0}, {0, 100}};
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < per_blob; ++i) {
      data.push_back(centers[b][0] + rng.NextGaussian());
      data.push_back(centers[b][1] + rng.NextGaussian());
    }
  }
  return data;
}

TEST(KMeansTest, SeparatesObviousBlobs) {
  Rng rng(41);
  auto data = ThreeBlobs(40, rng);
  KMeansResult r = KMeans(data, 2, /*k=*/3, rng);
  EXPECT_EQ(r.k_effective, 3);
  // All rows of one blob share a label, and the three labels differ.
  std::set<int32_t> labels;
  for (int b = 0; b < 3; ++b) {
    int32_t label = r.assignment[b * 40];
    labels.insert(label);
    for (int i = 0; i < 40; ++i) EXPECT_EQ(r.assignment[b * 40 + i], label);
  }
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeansTest, InertiaSmallForTightBlobs) {
  Rng rng(43);
  auto data = ThreeBlobs(30, rng);
  KMeansResult r = KMeans(data, 2, /*k=*/3, rng);
  // Each point ~N(0,1) around its centroid: expected inertia ~= 2 * n.
  EXPECT_LT(r.inertia, 4.0 * 90.0);
}

TEST(KMeansTest, KLargerThanRowsClampsToRows) {
  Rng rng(47);
  std::vector<double> data = {0, 0, 10, 10};
  KMeansResult r = KMeans(data, 2, /*k=*/8, rng);
  EXPECT_EQ(r.k_effective, 2);
  EXPECT_NE(r.assignment[0], r.assignment[1]);
  EXPECT_NEAR(r.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, EmptyInput) {
  Rng rng(53);
  KMeansResult r = KMeans({}, 3, /*k=*/8, rng);
  EXPECT_EQ(r.k_effective, 0);
  EXPECT_TRUE(r.assignment.empty());
}

TEST(KMeansTest, SingleCluster) {
  Rng rng(59);
  std::vector<double> data = {1, 1, 2, 2, 3, 3};
  KMeansResult r = KMeans(data, 2, /*k=*/1, rng);
  EXPECT_EQ(r.k_effective, 1);
  EXPECT_NEAR(r.centroids[0], 2.0, 1e-9);
  EXPECT_NEAR(r.centroids[1], 2.0, 1e-9);
}

TEST(KMeansTest, IdenticalPointsDoNotCrash) {
  Rng rng(61);
  std::vector<double> data(40, 5.0);  // 20 identical 2-d points
  KMeansResult r = KMeans(data, 2, /*k=*/4, rng);
  EXPECT_EQ(r.k_effective, 4);
  EXPECT_NEAR(r.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, HighDimensionalRows) {
  // Transition-probability vectors are high-dimensional; exercise dim=16.
  Rng rng(67);
  std::vector<double> data;
  for (int row = 0; row < 30; ++row) {
    for (int j = 0; j < 16; ++j) {
      // Two groups: mass on dim 0..7 vs dims 8..15.
      bool first_half = row < 15;
      data.push_back((first_half == (j < 8)) ? 1.0 + 0.01 * rng.NextGaussian()
                                             : 0.0);
    }
  }
  KMeansResult r = KMeans(data, 16, /*k=*/2, rng);
  for (int row = 0; row < 15; ++row) {
    EXPECT_EQ(r.assignment[row], r.assignment[0]);
  }
  for (int row = 15; row < 30; ++row) {
    EXPECT_EQ(r.assignment[row], r.assignment[15]);
  }
  EXPECT_NE(r.assignment[0], r.assignment[15]);
}

TEST(KMeansTest, AssignmentConsistentWithCentroids) {
  Rng rng(73);
  auto data = ThreeBlobs(20, rng);
  KMeansResult r = KMeans(data, 2, /*k=*/3, rng);
  auto d2 = [&](size_t row, int32_t c) {
    double dx = data[row * 2] - r.centroids[c * 2];
    double dy = data[row * 2 + 1] - r.centroids[c * 2 + 1];
    return dx * dx + dy * dy;
  };
  // Every row is assigned to its nearest centroid.
  for (size_t row = 0; row < r.assignment.size(); ++row) {
    double own = d2(row, r.assignment[row]);
    for (int32_t c = 0; c < r.k_effective; ++c) {
      EXPECT_LE(own, d2(row, c) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace mtshare
