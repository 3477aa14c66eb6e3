#ifndef MTSHARE_CLUSTERING_KMEANS_H_
#define MTSHARE_CLUSTERING_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace mtshare {

struct KMeansResult {
  /// Cluster id per input row, in [0, k_effective).
  std::vector<int32_t> assignment;
  /// Row-major centroids, k_effective x dim.
  std::vector<double> centroids;
  int32_t k_effective = 0;
  int32_t iterations = 0;
  /// Sum of squared distances from each row to its centroid.
  double inertia = 0.0;
};

/// Clusters `num_rows` points of dimension `dim`, stored row-major in
/// `data`, into `k` clusters by Lloyd's algorithm with k-means++ seeding
/// (at most 60 iterations; stops early once the summed squared centroid
/// movement falls below 1e-6). Both stages of the paper's bipartite map
/// partitioning (geo-clustering on coordinates, transition clustering on
/// probability vectors; Sec. IV-B1) run through this routine.
///
/// The assignment step skips every row whose Hamerly bounds prove it keeps
/// its centroid, with a margin that covers the rounding of the bounds, and
/// scans the other rows four centroids at a time. The result (assignment,
/// iterations, centroids, inertia) and the draws taken from `rng` are
/// those of the plain loop that scans every row, bit for bit (DESIGN.md
/// §5). Ties go to the lowest centroid index.
///
/// k is clamped to [1, num_rows], so k_effective == min(k, num_rows)
/// whenever there are rows. A cluster that falls empty during iteration is
/// reseeded at the row farthest from its centroid; with identical rows,
/// clusters can still end empty or share a centroid (four equal rows and
/// k = 4 all land in cluster 0).
KMeansResult KMeans(const std::vector<double>& data, size_t dim, int32_t k,
                    Rng& rng);

}  // namespace mtshare

#endif  // MTSHARE_CLUSTERING_KMEANS_H_
