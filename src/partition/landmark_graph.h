#ifndef MTSHARE_PARTITION_LANDMARK_GRAPH_H_
#define MTSHARE_PARTITION_LANDMARK_GRAPH_H_

#include <vector>

#include "geo/mobility_vector.h"
#include "partition/map_partitioning.h"
#include "routing/contraction_hierarchy.h"

namespace mtshare {

/// Landmark graph G_l (paper Def. 8): one vertex per partition landmark,
/// an edge between landmarks of adjacent partitions (partitions are
/// adjacent when some road edge crosses between them). Carries the dense
/// landmark-to-landmark travel-cost table used by partition filtering
/// (Algorithm 2) and by probabilistic routing's partition-path planning
/// (Algorithm 4 step 2), and the dense table of landmark-to-landmark
/// displacement lengths that both algorithms' direction tests read.
class LandmarkGraph {
 public:
  /// Builds adjacency from crossing edges, and the cost table and the
  /// per-vertex landmark terms from one forward and one backward PhastRow
  /// per landmark on `ch`, a hierarchy of `network` (2·kappa rows, done
  /// once; the paper likewise precomputes landmark costs, Sec. V-A4). The
  /// graph keeps no reference to `ch`.
  LandmarkGraph(const RoadNetwork& network,
                const MapPartitioning& partitioning,
                const ContractionHierarchy& ch);

  /// The same graph over a hierarchy built here and dropped after use.
  /// MTShareSystem passes its oracle's hierarchy to the constructor above
  /// instead.
  LandmarkGraph(const RoadNetwork& network,
                const MapPartitioning& partitioning);

  int32_t num_partitions() const {
    return static_cast<int32_t>(adjacency_.size());
  }

  /// Travel cost between the landmarks of two partitions on the road
  /// network (not restricted to landmark-graph hops).
  Seconds LandmarkCost(PartitionId a, PartitionId b) const {
    return costs_[static_cast<size_t>(a) * num_partitions_ + b];
  }

  /// Displacement from the landmark of `a` to that of `b` on the city
  /// plane: coord(l_b) - coord(l_a).
  Point Displacement(PartitionId a, PartitionId b) const {
    const Point& from = landmark_points_[a];
    const Point& to = landmark_points_[b];
    return Point{to.x - from.x, to.y - from.y};
  }

  /// VectorNorm(Displacement(a, b)), stored: the partition filter's and
  /// Algorithm 4's direction tests read it instead of taking a square
  /// root per landmark pair, with the same bits (CosineFromNorms).
  double DisplacementNorm(PartitionId a, PartitionId b) const {
    return displacement_norms_[static_cast<size_t>(a) * num_partitions_ + b];
  }

  /// Partitions adjacent to each partition, indexed by partition;
  /// symmetric.
  const std::vector<std::vector<PartitionId>>& Adjacency() const {
    return adjacency_;
  }

  bool Adjacent(PartitionId a, PartitionId b) const;

  /// Admissible lower bound on the road-network travel cost a -> b, by
  /// triangle inequality over the home landmarks l_a, l_b:
  ///   d(a, b) >= d(l_a, l_b) - d(l_a, a) - d(b, l_b).
  /// Never exceeds the true cost (so pruning with it cannot change
  /// results); returns 0 when the bound is vacuous or any term is
  /// infinite. O(1): all three terms are precomputed at build.
  Seconds LowerBound(VertexId a, VertexId b) const;

  /// Admissible *upper* bound on the travel cost a -> b, by routing through
  /// the home landmarks:  d(a, b) <= d(a, l_a) + d(l_a, l_b) + d(l_b, b).
  /// Never below the true cost; returns kInfiniteCost when any term is
  /// infinite (an unusable bound, unlike LowerBound's vacuous 0). O(1):
  /// all three terms are precomputed at build. Paired with LowerBound in
  /// the detour-ellipse screen (DESIGN.md §14) to lower-bound the added
  /// cost of an insertion slot: LB(x, o) + LB(o, y) - UB(x, y) <= d1.
  Seconds UpperBound(VertexId a, VertexId b) const;

  size_t MemoryBytes() const;

 private:
  int32_t num_partitions_;
  const MapPartitioning* partitioning_;  // outlives this (owner builds both)
  std::vector<std::vector<PartitionId>> adjacency_;
  std::vector<Seconds> costs_;  // dense num_partitions^2
  std::vector<Point> landmark_points_;       // coord(l_p), per partition
  std::vector<double> displacement_norms_;  // dense num_partitions^2
  /// Per-vertex distances to/from the vertex's home landmark:
  /// from_landmark_[v] = d(l_{P(v)}, v), to_landmark_[v] = d(v, l_{P(v)}).
  std::vector<Seconds> from_landmark_;
  std::vector<Seconds> to_landmark_;
};

}  // namespace mtshare

#endif  // MTSHARE_PARTITION_LANDMARK_GRAPH_H_
