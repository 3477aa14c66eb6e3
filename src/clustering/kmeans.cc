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
/// A row keeps its centroid without a scan only when its upper bound clears
/// its lower bound by this share of the largest distance or movement that
/// has entered any bound (DESIGN.md §5). The margin is absolute: a lower
/// bound decremented close to zero still carries the rounding error of its
/// original size.
constexpr double kBoundSlack = 1e-9;

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

/// Squared distances from row `row` to every centroid, one per entry of
/// `out`. Four centroids at a time share the row's loads in four
/// independent accumulators, each summing in RowCentroidDistanceSquared's
/// element order, so every distance equals that function's bit for bit.
void ScanCentroids(const std::vector<double>& data, size_t dim, size_t row,
                   const std::vector<double>& centroids,
                   std::vector<double>* out) {
  const double* x = data.data() + row * dim;
  const size_t k = out->size();
  size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const double* c0 = centroids.data() + c * dim;
    const double* c1 = c0 + dim;
    const double* c2 = c1 + dim;
    const double* c3 = c2 + dim;
    double a0 = 0.0;
    double a1 = 0.0;
    double a2 = 0.0;
    double a3 = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double d0 = x[j] - c0[j];
      const double d1 = x[j] - c1[j];
      const double d2 = x[j] - c2[j];
      const double d3 = x[j] - c3[j];
      a0 += d0 * d0;
      a1 += d1 * d1;
      a2 += d2 * d2;
      a3 += d3 * d3;
    }
    (*out)[c] = a0;
    (*out)[c + 1] = a1;
    (*out)[c + 2] = a2;
    (*out)[c + 3] = a3;
  }
  for (; c < k; ++c) {
    (*out)[c] = RowCentroidDistanceSquared(data, dim, row, centroids, c);
  }
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

  // Hamerly's bounds (DESIGN.md §5): upper[i] is at least row i's distance
  // to its centroid, lower[i] at most its distance to any other centroid.
  // The first pass scans every row.
  std::vector<double> dist(k);
  std::vector<double> upper(num_rows, std::numeric_limits<double>::infinity());
  std::vector<double> lower(num_rows, 0.0);
  std::vector<double> shift(k);
  double largest = 0.0;  // largest distance or movement in any bound

  // Assigns every row to its nearest centroid, the lowest index on a tie,
  // and returns the sum of the squared distances in row order; only the
  // final pass needs that sum for the rows it skips.
  auto assign = [&](bool final_pass) {
    const double slack = kBoundSlack * largest;
    double inertia = 0.0;
    for (size_t i = 0; i < num_rows; ++i) {
      if (upper[i] + slack < lower[i]) {
        // Every other centroid is strictly farther: the scan would keep
        // the centroid and sum exactly this distance.
        if (final_pass) {
          inertia += RowCentroidDistanceSquared(
              data, dim, i, result.centroids,
              static_cast<size_t>(result.assignment[i]));
        }
        continue;
      }
      ScanCentroids(data, dim, i, result.centroids, &dist);
      double best = std::numeric_limits<double>::infinity();
      double second = best;
      int32_t best_c = 0;
      for (int32_t c = 0; c < k; ++c) {
        if (dist[c] < best) {
          second = best;
          best = dist[c];
          best_c = c;
        } else if (dist[c] < second) {
          second = dist[c];
        }
      }
      result.assignment[i] = best_c;
      inertia += best;
      upper[i] = std::sqrt(best);
      lower[i] = std::sqrt(second);
      largest = std::max(largest, k > 1 ? lower[i] : upper[i]);
    }
    return inertia;
  };

  for (int32_t iter = 0; iter < kMaxIterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step. Its inertia is overwritten by the final pass.
    assign(/*final_pass=*/false);

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

    // The summed movement decides convergence; each centroid's own
    // movement loosens the bounds of the rows.
    double movement = 0.0;
    for (int32_t c = 0; c < k; ++c) {
      double moved = 0.0;
      for (size_t j = 0; j < dim; ++j) {
        const size_t idx = static_cast<size_t>(c) * dim + j;
        double d = new_centroids[idx] - result.centroids[idx];
        movement += d * d;
        moved += d * d;
      }
      shift[c] = std::sqrt(moved);
    }
    result.centroids.swap(new_centroids);

    int32_t far = 0;  // the centroid that moved most
    for (int32_t c = 1; c < k; ++c) {
      if (shift[c] > shift[far]) far = c;
    }
    double far_other = 0.0;  // the most any other centroid moved
    for (int32_t c = 0; c < k; ++c) {
      if (c != far) far_other = std::max(far_other, shift[c]);
    }
    largest = std::max(largest, shift[far]);
    for (size_t i = 0; i < num_rows; ++i) {
      const int32_t a = result.assignment[i];
      upper[i] += shift[a];
      lower[i] -= a == far ? far_other : shift[far];
    }
    if (movement < kTolerance) break;
  }

  // Final assignment against the last centroids.
  result.inertia = assign(/*final_pass=*/true);
  return result;
}

}  // namespace mtshare
