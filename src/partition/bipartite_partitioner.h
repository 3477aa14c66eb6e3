#ifndef MTSHARE_PARTITION_BIPARTITE_PARTITIONER_H_
#define MTSHARE_PARTITION_BIPARTITE_PARTITIONER_H_

#include <cstdint>

#include "mobility/transition_model.h"
#include "partition/map_partitioning.h"

namespace mtshare {

/// Options for the bipartite map partitioning of paper Sec. IV-B1.
struct BipartiteOptions {
  /// Number of spatial clusters kappa (paper sweeps 50-250, default 150;
  /// scale with network size).
  int32_t kappa = 120;
  /// Number of transition clusters k_t (paper default 20, k_t < kappa).
  int32_t kt = 20;
  uint64_t seed = 17;
};

/// Runs bipartite map partitioning: k-means on vertex coordinates seeds
/// kappa spatial clusters; then, iteratively, (1) per-vertex transition
/// probability vectors against the current clusters, (2) k-means of those
/// vectors into kt transition clusters, (3) geo k-means of each transition
/// cluster into floor(n*kappa/N + 1/2) spatial clusters; until the spatial
/// clustering stabilizes or six rounds have run. The result's partitions
/// are both geographically compact and transition-homogeneous.
MapPartitioning BipartitePartition(const RoadNetwork& network,
                                   const std::vector<OdPair>& historical_trips,
                                   const BipartiteOptions& options);

}  // namespace mtshare

#endif  // MTSHARE_PARTITION_BIPARTITE_PARTITIONER_H_
