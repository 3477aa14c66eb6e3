#ifndef MTSHARE_PARTITION_MAP_PARTITIONING_H_
#define MTSHARE_PARTITION_MAP_PARTITIONING_H_

#include <vector>

#include "common/types.h"
#include "graph/road_network.h"

namespace mtshare {

/// A partitioning of the road-network vertex set plus derived geometry.
/// Produced by GridPartition (baseline) or BipartitePartition (paper
/// Sec. IV-B1); consumed by the taxi index, candidate search, partition
/// filtering, and probabilistic routing.
struct MapPartitioning {
  /// Partition id per vertex; every vertex is assigned.
  std::vector<PartitionId> vertex_partition;
  /// Member vertices per partition.
  std::vector<std::vector<VertexId>> partition_vertices;
  /// Landmark vertex per partition (paper Def. 7: the member vertex with
  /// minimum total distance to the other members; approximated, see
  /// FinalizeGeometry).
  std::vector<VertexId> landmarks;
  /// Geometric centroid of the member coordinates, per partition.
  std::vector<Point> centroids;
  /// Max distance from centroid to any member vertex, per partition.
  std::vector<double> radius_m;

  int32_t num_partitions() const {
    return static_cast<int32_t>(partition_vertices.size());
  }

  PartitionId PartitionOf(VertexId v) const { return vertex_partition[v]; }

  /// Partitions whose bounding circle intersects the query circle — the
  /// map-partition set S_ri of candidate search (paper eq. (3) context).
  std::vector<PartitionId> PartitionsIntersectingCircle(const Point& center,
                                                        double radius) const;
  /// Same set appended into a caller-owned buffer (hot dispatch paths
  /// clear + reuse one buffer per thread instead of allocating per query).
  void AppendPartitionsIntersectingCircle(const Point& center, double radius,
                                          std::vector<PartitionId>* out) const;

  size_t MemoryBytes() const;
};

/// Fills centroids/radius/landmarks from vertex_partition +
/// partition_vertices. Landmark selection: among the 8 members nearest the
/// centroid, pick the one minimizing total Euclidean distance to a sample
/// of members (exact medoid is O(n^2)).
void FinalizeGeometry(const RoadNetwork& network,
                      MapPartitioning* partitioning);

/// Uniform-grid partitioner over the bounding box with roughly
/// `target_partitions` non-empty cells — the indexing scheme of
/// T-Share/pGreedyDP and the paper's Table V baseline strategy.
MapPartitioning GridPartition(const RoadNetwork& network,
                              int32_t target_partitions);

}  // namespace mtshare

#endif  // MTSHARE_PARTITION_MAP_PARTITIONING_H_
