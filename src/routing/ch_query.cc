#include "routing/ch_query.h"

#include <algorithm>

#include "common/epoch.h"

namespace mtshare {

ChQuery::ChQuery(const ContractionHierarchy& ch) : forward_(ch), backward_(ch) {
  const int32_t n = ch.num_vertices();
  buckets_.resize(n);
  bucket_epoch_.assign(n, 0);
  target_slot_.assign(n, 0);
  target_slot_epoch_.assign(n, 0);
}

Seconds ChQuery::Cost(VertexId source, VertexId target) {
  ++stats_.point_queries;
  if (source == target) return 0.0;

  // Forward upward search from the source, run to exhaustion. Upward search
  // spaces are tiny (hundreds of vertices on road-like graphs), and final
  // distances let the backward pass prune against an exact best-so-far.
  forward_.Run(source, UpwardSearch::kForward, kInfiniteCost,
               [&](VertexId, Seconds) {
                 ++stats_.upward_settled;
                 return true;
               });

  // Backward upward search from the target over the down-graph, stopped
  // once it can no longer beat the best meeting point.
  Seconds best = kInfiniteCost;
  backward_.Run(target, UpwardSearch::kBackward, kInfiniteCost,
                [&](VertexId v, Seconds dist) {
                  if (dist >= best) return false;
                  ++stats_.upward_settled;
                  if (forward_.Reached(v)) {
                    best = std::min(best, forward_.Distance(v) + dist);
                  }
                  return true;
                });
  return best;
}

void ChQuery::BuildBuckets(std::span<const CostFan> fans) {
  NextEpoch(bucket_epoch_id_, bucket_epoch_, target_slot_epoch_);
  num_slots_ = 0;
  for (const CostFan& fan : fans) {
    for (VertexId t : fan.targets) {
      // A repeated target reads its first occurrence's slot.
      if (target_slot_epoch_[t] == bucket_epoch_id_) continue;
      target_slot_epoch_[t] = bucket_epoch_id_;
      const int32_t slot = num_slots_++;
      target_slot_[t] = slot;

      // Backward upward search from t: every settled vertex v can reach t
      // along a down-path of cost `dist`; deposit that into v's bucket.
      backward_.Run(t, UpwardSearch::kBackward, kInfiniteCost,
                    [&](VertexId v, Seconds dist) {
                      ++stats_.upward_settled;
                      if (bucket_epoch_[v] != bucket_epoch_id_) {
                        bucket_epoch_[v] = bucket_epoch_id_;
                        buckets_[v].clear();
                      }
                      buckets_[v].push_back({slot, dist});
                      ++stats_.bucket_entries;
                      return true;
                    });
    }
  }
}

void ChQuery::SourceToBuckets(VertexId source) {
  row_buf_.assign(num_slots_, kInfiniteCost);
  forward_.Run(source, UpwardSearch::kForward, kInfiniteCost,
               [&](VertexId v, Seconds dist) {
                 ++stats_.upward_settled;
                 if (bucket_epoch_[v] != bucket_epoch_id_) return true;
                 for (const BucketEntry& entry : buckets_[v]) {
                   // Exact dyadic costs make this sum exact, so the minimum
                   // over meeting vertices is the true shortest distance
                   // bit-for-bit.
                   Seconds cand = dist + entry.cost;
                   if (cand < row_buf_[entry.slot]) row_buf_[entry.slot] = cand;
                 }
                 return true;
               });
}

void ChQuery::CostFans(std::span<const CostFan> fans,
                       std::vector<Seconds>* out) {
  ++stats_.bucket_queries;
  BuildBuckets(fans);
  out->clear();
  for (const CostFan& fan : fans) {
    SourceToBuckets(fan.source);
    for (VertexId t : fan.targets) out->push_back(row_buf_[target_slot_[t]]);
  }
}

size_t ChQuery::MemoryBytes() const {
  size_t bucket_bytes = 0;
  for (const std::vector<BucketEntry>& bucket : buckets_) {
    bucket_bytes += bucket.capacity() * sizeof(BucketEntry);
  }
  return forward_.MemoryBytes() + backward_.MemoryBytes() + bucket_bytes +
         buckets_.size() * sizeof(std::vector<BucketEntry>) +
         row_buf_.capacity() * sizeof(Seconds) +
         (bucket_epoch_.size() + target_slot_.size() +
          target_slot_epoch_.size()) *
             sizeof(uint32_t);
}

}  // namespace mtshare
