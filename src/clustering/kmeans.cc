#include "clustering/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace mtshare {
namespace {

/// Lloyd's algorithm runs at most this many iterations.
constexpr int32_t kMaxIterations = 60;
/// Iteration stops once the summed squared centroid movement falls below
/// this.
constexpr double kTolerance = 1e-6;

double RowRowDistanceSquared(const std::vector<double>& data, size_t dim,
                             size_t a, size_t b) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    double d = data[a * dim + j] - data[b * dim + j];
    acc += d * d;
  }
  return acc;
}

std::vector<double> SeedKMeansPlusPlus(const std::vector<double>& data,
                                       size_t dim, size_t num_rows, int32_t k,
                                       Rng& rng) {
  std::vector<double> centroids(static_cast<size_t>(k) * dim);
  std::vector<size_t> chosen;
  chosen.reserve(k);
  chosen.push_back(static_cast<size_t>(
      rng.NextInt(0, static_cast<int64_t>(num_rows) - 1)));
  std::vector<double> min_d2(num_rows,
                             std::numeric_limits<double>::infinity());
  for (int32_t c = 1; c < k; ++c) {
    size_t last = chosen.back();
    for (size_t i = 0; i < num_rows; ++i) {
      min_d2[i] = std::min(min_d2[i], RowRowDistanceSquared(data, dim, i, last));
    }
    chosen.push_back(rng.NextDiscrete(min_d2));
  }
  for (int32_t c = 0; c < k; ++c) {
    std::copy_n(data.begin() + chosen[c] * dim, dim,
                centroids.begin() + static_cast<size_t>(c) * dim);
  }
  return centroids;
}

double RowCentroidDistanceSquared(const std::vector<double>& data, size_t dim,
                                  size_t row,
                                  const std::vector<double>& centroids,
                                  size_t centroid) {
  double acc = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    double d = data[row * dim + j] - centroids[centroid * dim + j];
    acc += d * d;
  }
  return acc;
}

}  // namespace

KMeansResult KMeans(const std::vector<double>& data, size_t dim, int32_t k,
                    Rng& rng) {
  MTSHARE_CHECK(dim > 0);
  MTSHARE_CHECK(data.size() % dim == 0);
  const size_t num_rows = data.size() / dim;
  KMeansResult result;
  if (num_rows == 0) return result;

  k = std::max<int32_t>(1,
                        std::min<int32_t>(k, static_cast<int32_t>(num_rows)));
  result.k_effective = k;

  result.centroids = SeedKMeansPlusPlus(data, dim, num_rows, k, rng);
  result.assignment.assign(num_rows, 0);

  std::vector<double> new_centroids(static_cast<size_t>(k) * dim);
  std::vector<int64_t> counts(k);

  for (int32_t iter = 0; iter < kMaxIterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step.
    double inertia = 0.0;
    for (size_t i = 0; i < num_rows; ++i) {
      double best = std::numeric_limits<double>::infinity();
      int32_t best_c = 0;
      for (int32_t c = 0; c < k; ++c) {
        double d2 = RowCentroidDistanceSquared(data, dim, i, result.centroids,
                                               static_cast<size_t>(c));
        if (d2 < best) {
          best = d2;
          best_c = c;
        }
      }
      result.assignment[i] = best_c;
      inertia += best;
    }
    result.inertia = inertia;

    // Update step.
    std::fill(new_centroids.begin(), new_centroids.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < num_rows; ++i) {
      int32_t c = result.assignment[i];
      ++counts[c];
      for (size_t j = 0; j < dim; ++j) {
        new_centroids[static_cast<size_t>(c) * dim + j] += data[i * dim + j];
      }
    }
    for (int32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Reseed the empty cluster at the row farthest from its centroid.
        size_t worst_row = 0;
        double worst = -1.0;
        for (size_t i = 0; i < num_rows; ++i) {
          double d2 = RowCentroidDistanceSquared(
              data, dim, i, result.centroids,
              static_cast<size_t>(result.assignment[i]));
          if (d2 > worst) {
            worst = d2;
            worst_row = i;
          }
        }
        std::copy_n(data.begin() + worst_row * dim, dim,
                    new_centroids.begin() + static_cast<size_t>(c) * dim);
      } else {
        for (size_t j = 0; j < dim; ++j) {
          new_centroids[static_cast<size_t>(c) * dim + j] /=
              static_cast<double>(counts[c]);
        }
      }
    }

    double movement = 0.0;
    for (size_t idx = 0; idx < new_centroids.size(); ++idx) {
      double d = new_centroids[idx] - result.centroids[idx];
      movement += d * d;
    }
    result.centroids.swap(new_centroids);
    if (movement < kTolerance) break;
  }

  // Final assignment against the last centroids.
  double inertia = 0.0;
  for (size_t i = 0; i < num_rows; ++i) {
    double best = std::numeric_limits<double>::infinity();
    int32_t best_c = 0;
    for (int32_t c = 0; c < k; ++c) {
      double d2 = RowCentroidDistanceSquared(data, dim, i, result.centroids,
                                             static_cast<size_t>(c));
      if (d2 < best) {
        best = d2;
        best_c = c;
      }
    }
    result.assignment[i] = best_c;
    inertia += best;
  }
  result.inertia = inertia;
  return result;
}

}  // namespace mtshare
