#ifndef MTSHARE_ROUTING_CH_QUERY_H_
#define MTSHARE_ROUTING_CH_QUERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "routing/contraction_hierarchy.h"
#include "routing/upward_search.h"

namespace mtshare {

/// Work counters of one ChQuery engine since its last ResetStats(). The
/// oracle aggregates these across its engine pool into Metrics::routing.
struct ChQueryStats {
  /// Bidirectional point queries answered.
  int64_t point_queries = 0;
  /// CostFans calls answered (one bucket build each).
  int64_t bucket_queries = 0;
  /// Vertices settled by upward searches (forward + backward, point and
  /// bucket passes alike).
  int64_t upward_settled = 0;
  /// (vertex, target, distance) entries deposited into buckets.
  int64_t bucket_entries = 0;
};

/// One source with its own targets: the unit of the oracle's batch call.
/// Targets may repeat, within one fan and across the fans of one call.
struct CostFan {
  VertexId source;
  std::span<const VertexId> targets;
};

/// Query engine over a ContractionHierarchy: bidirectional upward point
/// queries plus bucket-based fans (settle each distinct target's downward
/// search into per-vertex buckets once, then answer every fan with a
/// single upward sweep from its source — the insertion-evaluation
/// workload of Laupichler & Sanders, arXiv:2311.01581). Both are runs of
/// two UpwardSearch kernels, one per direction.
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

  /// Buckets once over the distinct targets of all fans, then one forward
  /// sweep per fan. `out` becomes each fan's costs in turn, aligned with
  /// that fan's targets. Counts one bucket pass.
  void CostFans(std::span<const CostFan> fans, std::vector<Seconds>* out);

  const ChQueryStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ChQueryStats{}; }

  /// Resident bytes of this engine's search buffers and buckets.
  size_t MemoryBytes() const;

 private:
  struct BucketEntry {
    int32_t slot;
    Seconds cost;
  };

  /// Builds per-vertex buckets for every distinct target of `fans`: one
  /// backward upward search per distinct target vertex, numbered into
  /// target_slot_. Buckets stay valid until the next BuildBuckets() call
  /// on this engine.
  void BuildBuckets(std::span<const CostFan> fans);

  /// Costs from `source` to every slot of the last BuildBuckets(), into
  /// row_buf_, via one forward upward sweep.
  void SourceToBuckets(VertexId source);

  UpwardSearch forward_;
  UpwardSearch backward_;

  // Bucket state: buckets_[v] holds entries of the most recent
  // BuildBuckets() iff bucket_epoch_[v] == bucket_epoch_id_.
  std::vector<std::vector<BucketEntry>> buckets_;
  std::vector<uint32_t> bucket_epoch_;
  uint32_t bucket_epoch_id_ = 0;
  // target vertex -> its slot in the last BuildBuckets() (a repeated
  // target shares its first occurrence's search), epoch-stamped.
  std::vector<int32_t> target_slot_;
  std::vector<uint32_t> target_slot_epoch_;
  int32_t num_slots_ = 0;
  // One sweep's cost per slot.
  std::vector<Seconds> row_buf_;

  ChQueryStats stats_;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_CH_QUERY_H_
