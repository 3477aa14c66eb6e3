#ifndef MTSHARE_ROUTING_CH_QUERY_H_
#define MTSHARE_ROUTING_CH_QUERY_H_

#include <cstdint>

#include "routing/contraction_hierarchy.h"
#include "routing/upward_search.h"

namespace mtshare {

/// Work counters of one ChQuery engine since its last ResetStats(). The
/// oracle aggregates these across its engine pool into Metrics::routing.
struct ChQueryStats {
  /// Bidirectional point queries answered.
  int64_t point_queries = 0;
  /// Vertices reached by the point queries' upward searches, forward and
  /// backward, each run to exhaustion.
  int64_t upward_settled = 0;
};

/// Point-query engine over a ContractionHierarchy: a forward upward search
/// from the source and a backward upward search from the target, two
/// exhaustive runs of the UpwardSearch kernel, meet at their common
/// vertices. It answers DistanceOracle::Cost on the CH backend, one pair
/// per call; insertion legs do not come here: they meet stored labels
/// (LastStopBuckets, InsertionCostBatch).
///
/// Costs are bit-identical to DijkstraSearch on the same network because
/// arc costs live on the exact dyadic grid (QuantizeTravelCost): every
/// sum of arc/shortcut costs is exact, so the minimum over up-down paths
/// equals the true shortest distance to the last bit.
///
/// Buffers are epoch-stamped and O(V); not thread-safe — one engine per
/// thread (DistanceOracle keeps a pool).
class ChQuery {
 public:
  explicit ChQuery(const ContractionHierarchy& ch);

  /// Shortest travel time s -> t (kInfiniteCost if unreachable).
  Seconds Cost(VertexId source, VertexId target);

  const ChQueryStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ChQueryStats{}; }

  /// Resident bytes of this engine's search buffers.
  size_t MemoryBytes() const;

 private:
  UpwardSearch forward_;
  UpwardSearch backward_;

  ChQueryStats stats_;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_CH_QUERY_H_
