#include "clustering/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

namespace mtshare {
namespace {

// Test oracle: the plain Lloyd loop KMeans must reproduce bit for bit.
// k-means++ seeding, a full scan of every row against every centroid, the
// mean update, the farthest-row reseed of an empty cluster and a final
// full pass, each distance summed in element order.
double ReferenceDistanceSquared(const double* a, const double* b,
                                size_t dim) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    double d = a[j] - b[j];
    acc += d * d;
  }
  return acc;
}

KMeansResult ReferenceKMeans(const std::vector<double>& data, size_t dim,
                             int32_t k, Rng& rng) {
  constexpr int32_t kMaxIterations = 60;
  constexpr double kTolerance = 1e-6;
  const size_t num_rows = data.size() / dim;
  KMeansResult result;
  if (num_rows == 0) return result;
  k = std::max<int32_t>(1,
                        std::min<int32_t>(k, static_cast<int32_t>(num_rows)));
  result.k_effective = k;
  auto row = [&](size_t i) { return data.data() + i * dim; };

  std::vector<size_t> chosen = {static_cast<size_t>(
      rng.NextInt(0, static_cast<int64_t>(num_rows) - 1))};
  std::vector<double> min_d2(num_rows,
                             std::numeric_limits<double>::infinity());
  for (int32_t c = 1; c < k; ++c) {
    for (size_t i = 0; i < num_rows; ++i) {
      min_d2[i] = std::min(
          min_d2[i], ReferenceDistanceSquared(row(i), row(chosen.back()), dim));
    }
    chosen.push_back(rng.NextDiscrete(min_d2));
  }
  std::vector<double>& centroids = result.centroids;
  for (size_t c : chosen) {
    centroids.insert(centroids.end(), row(c), row(c) + dim);
  }
  auto centroid = [&](int32_t c) {
    return centroids.data() + static_cast<size_t>(c) * dim;
  };

  auto assign = [&] {
    double inertia = 0.0;
    for (size_t i = 0; i < num_rows; ++i) {
      double best = std::numeric_limits<double>::infinity();
      int32_t best_c = 0;
      for (int32_t c = 0; c < k; ++c) {
        double d2 = ReferenceDistanceSquared(row(i), centroid(c), dim);
        if (d2 < best) {
          best = d2;
          best_c = c;
        }
      }
      result.assignment[i] = best_c;
      inertia += best;
    }
    result.inertia = inertia;
  };

  result.assignment.assign(num_rows, 0);
  std::vector<double> next(centroids.size());
  std::vector<int64_t> counts(k);
  for (int32_t iter = 0; iter < kMaxIterations; ++iter) {
    result.iterations = iter + 1;
    assign();
    std::fill(next.begin(), next.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < num_rows; ++i) {
      int32_t c = result.assignment[i];
      ++counts[c];
      for (size_t j = 0; j < dim; ++j) {
        next[static_cast<size_t>(c) * dim + j] += row(i)[j];
      }
    }
    for (int32_t c = 0; c < k; ++c) {
      double* out = next.data() + static_cast<size_t>(c) * dim;
      if (counts[c] == 0) {
        size_t worst_row = 0;
        double worst = -1.0;
        for (size_t i = 0; i < num_rows; ++i) {
          double d2 = ReferenceDistanceSquared(
              row(i), centroid(result.assignment[i]), dim);
          if (d2 > worst) {
            worst = d2;
            worst_row = i;
          }
        }
        std::copy_n(row(worst_row), dim, out);
      } else {
        for (size_t j = 0; j < dim; ++j) {
          out[j] /= static_cast<double>(counts[c]);
        }
      }
    }
    double movement = 0.0;
    for (size_t idx = 0; idx < next.size(); ++idx) {
      double d = next[idx] - centroids[idx];
      movement += d * d;
    }
    centroids.swap(next);
    if (movement < kTolerance) break;
  }
  assign();
  return result;
}

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

// The input families that stress the exactness argument of the bounds:
// exact distance ties, coinciding centroids, empty-cluster reseeds, the
// uniform seeding fallback, cancellation under large offsets, and the
// sparse ~120-dimensional rows of the transition clustering.
enum class Family {
  kBlobs,
  kDuplicates,
  kFewValues,
  kFewDistinctRows,
  kLargeOffset,
  kTransition,
};

std::vector<double> MakeRows(Family family, size_t num_rows, size_t dim,
                             Rng& rng) {
  std::vector<double> data;
  data.reserve(num_rows * dim);
  switch (family) {
    case Family::kBlobs: {
      const int32_t blobs = static_cast<int32_t>(rng.NextInt(1, 6));
      std::vector<double> centers(blobs * dim);
      for (double& c : centers) c = rng.NextUniform(-50.0, 50.0);
      const double spread = rng.NextUniform(0.1, 20.0);
      for (size_t i = 0; i < num_rows; ++i) {
        const size_t b = static_cast<size_t>(rng.NextInt(0, blobs - 1));
        for (size_t j = 0; j < dim; ++j) {
          data.push_back(centers[b * dim + j] + spread * rng.NextGaussian());
        }
      }
      break;
    }
    case Family::kDuplicates:
    case Family::kFewDistinctRows: {
      // A small pool of rows, each repeated many times; the second family
      // keeps the pool below k so seeding falls back to uniform draws.
      const int64_t pool = family == Family::kDuplicates
                               ? rng.NextInt(2, 12)
                               : rng.NextInt(1, 4);
      std::vector<double> rows(static_cast<size_t>(pool) * dim);
      for (double& v : rows) v = std::round(rng.NextUniform(-4.0, 4.0));
      for (size_t i = 0; i < num_rows; ++i) {
        const size_t r = static_cast<size_t>(rng.NextInt(0, pool - 1));
        data.insert(data.end(), rows.begin() + r * dim,
                    rows.begin() + (r + 1) * dim);
      }
      break;
    }
    case Family::kFewValues:
      for (size_t i = 0; i < num_rows * dim; ++i) {
        data.push_back(static_cast<double>(rng.NextInt(0, 2)));
      }
      break;
    case Family::kLargeOffset: {
      const double offset = rng.NextUniform(1e5, 1e8);
      const double spread = rng.NextUniform(1e-7, 1e-3);
      for (size_t i = 0; i < num_rows * dim; ++i) {
        data.push_back(offset + spread * rng.NextGaussian());
      }
      break;
    }
    case Family::kTransition: {
      // Probability rows: a share of rows is one dense prior (vertices
      // with no history); the rest put their mass on a few groups near a
      // home group, in multiples of 1/trips like TransitionModel's rows.
      std::vector<double> prior(dim);
      double total = 0.0;
      for (double& p : prior) total += (p = rng.NextUniform(0.0, 1.0));
      for (double& p : prior) p /= total;
      const double prior_share = rng.NextUniform(0.0, 0.8);
      for (size_t i = 0; i < num_rows; ++i) {
        if (rng.NextDouble() < prior_share) {
          data.insert(data.end(), prior.begin(), prior.end());
          continue;
        }
        std::vector<double> row(dim, 0.0);
        const size_t home = static_cast<size_t>(
            rng.NextInt(0, static_cast<int64_t>(dim) - 1));
        const int64_t trips = rng.NextInt(1, 30);
        for (int64_t t = 0; t < trips; ++t) {
          const size_t near = static_cast<size_t>(rng.NextInt(0, 8));
          row[(home + near) % dim] += 1.0;
        }
        for (double& p : row) p /= static_cast<double>(trips);
        data.insert(data.end(), row.begin(), row.end());
      }
      break;
    }
  }
  return data;
}

void ExpectSameResult(const std::vector<double>& data, size_t dim, int32_t k,
                      uint64_t seed, const std::string& label) {
  SCOPED_TRACE(label);
  Rng rng_ref(seed);
  Rng rng_fast(seed);
  KMeansResult want = ReferenceKMeans(data, dim, k, rng_ref);
  KMeansResult got = KMeans(data, dim, k, rng_fast);
  ASSERT_EQ(got.k_effective, want.k_effective);
  ASSERT_EQ(got.iterations, want.iterations);
  ASSERT_EQ(got.assignment, want.assignment);
  ASSERT_EQ(got.centroids.size(), want.centroids.size());
  EXPECT_EQ(std::memcmp(got.centroids.data(), want.centroids.data(),
                        want.centroids.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia, sizeof(double)), 0);
  // Both generators consumed the same draws.
  EXPECT_EQ(rng_fast.Next(), rng_ref.Next());
}

TEST(KMeansTest, MatchesReferenceBitForBit) {
  Rng gen(2024);
  const Family families[] = {Family::kBlobs,           Family::kDuplicates,
                             Family::kFewValues,       Family::kFewDistinctRows,
                             Family::kLargeOffset};
  for (Family family : families) {
    for (size_t dim = 1; dim <= 8; ++dim) {
      for (int rep = 0; rep < 8; ++rep) {
        const size_t num_rows = static_cast<size_t>(gen.NextInt(1, 160));
        const int32_t k = static_cast<int32_t>(gen.NextInt(1, 24));
        std::vector<double> data = MakeRows(family, num_rows, dim, gen);
        ExpectSameResult(data, dim, k, gen.Next(),
                         "family " + std::to_string(static_cast<int>(family)) +
                             " dim " + std::to_string(dim) + " rows " +
                             std::to_string(num_rows) + " k " +
                             std::to_string(k));
        if (HasFatalFailure()) return;
      }
    }
  }
  for (int rep = 0; rep < 12; ++rep) {
    const size_t num_rows = static_cast<size_t>(gen.NextInt(20, 400));
    const int32_t k = static_cast<int32_t>(gen.NextInt(2, 24));
    std::vector<double> data =
        MakeRows(Family::kTransition, num_rows, 120, gen);
    ExpectSameResult(data, 120, k, gen.Next(),
                     "transition rows " + std::to_string(num_rows) + " k " +
                         std::to_string(k));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mtshare
