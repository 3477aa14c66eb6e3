#ifndef MTSHARE_SCHED_PARTITION_FILTER_H_
#define MTSHARE_SCHED_PARTITION_FILTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geo/mobility_vector.h"
#include "partition/landmark_graph.h"
#include "partition/map_partitioning.h"

namespace mtshare {

/// Partition filtering (paper Algorithm 2): given a leg between two
/// consecutive schedule events, retain only the map partitions that
///  (1) lie along the travel direction (cos between landmark vectors
///      >= lambda), and
///  (2) do not lengthen the landmark route beyond (1 + kEpsilon) times the
///      direct landmark cost.
/// The retained set prunes the search space of both routing modes.
class PartitionFilter {
 public:
  /// Cost-rule slack epsilon (Table II: 1.0, set conservatively).
  static constexpr double kEpsilon = 1.0;

  PartitionFilter(const RoadNetwork& network,
                  const MapPartitioning& partitioning,
                  const LandmarkGraph& landmark_graph, double lambda);

  /// Replaces `*kept` with the retained partitions for a leg from `from`
  /// to `to` (vertices): the start's partition first, then the end's
  /// when it differs, then the others in ascending id. The direction rule
  /// reads the landmark graph's stored displacement lengths, so it takes
  /// no square root.
  void Filter(VertexId from, VertexId to, std::vector<PartitionId>* kept) const;

  /// Sets mask[v] = 1 for every vertex of every retained partition.
  /// `mask` must be sized to num_vertices.
  void AddToMask(std::span<const PartitionId> partitions,
                 std::vector<uint8_t>* mask) const;

  /// Fraction of vertices that survive filtering for the leg — the pruning
  /// diagnostic reported by the partition-filter micro-bench.
  double RetainedVertexFraction(const std::vector<PartitionId>& kept) const;

 private:
  const RoadNetwork& network_;
  const MapPartitioning& partitioning_;
  const LandmarkGraph& landmarks_;
  double lambda_;
};

}  // namespace mtshare

#endif  // MTSHARE_SCHED_PARTITION_FILTER_H_
