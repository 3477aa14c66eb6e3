#include "routing/ch_query.h"

#include <algorithm>

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

void ChQuery::BuildBuckets(std::span<const VertexId> targets) {
  ++bucket_epoch_id_;
  if (bucket_epoch_id_ == 0) {
    std::fill(bucket_epoch_.begin(), bucket_epoch_.end(), 0);
    std::fill(target_slot_epoch_.begin(), target_slot_epoch_.end(), 0);
    bucket_epoch_id_ = 1;
  }
  bucket_targets_.assign(targets.begin(), targets.end());
  duplicate_targets_.clear();

  for (int32_t i = 0; i < static_cast<int32_t>(bucket_targets_.size()); ++i) {
    VertexId t = bucket_targets_[i];
    if (target_slot_epoch_[t] == bucket_epoch_id_) {
      // Repeated target: reuse the first occurrence's backward search and
      // copy its answer per source sweep.
      duplicate_targets_.push_back({target_slot_[t], i});
      continue;
    }
    target_slot_epoch_[t] = bucket_epoch_id_;
    target_slot_[t] = i;

    // Backward upward search from t: every settled vertex v can reach t
    // along a down-path of cost `dist`; deposit that into v's bucket.
    backward_.Run(t, UpwardSearch::kBackward, kInfiniteCost,
                  [&](VertexId v, Seconds dist) {
                    ++stats_.upward_settled;
                    if (bucket_epoch_[v] != bucket_epoch_id_) {
                      bucket_epoch_[v] = bucket_epoch_id_;
                      buckets_[v].clear();
                    }
                    buckets_[v].push_back({i, dist});
                    ++stats_.bucket_entries;
                    return true;
                  });
  }
}

void ChQuery::SourceToBuckets(VertexId source, std::vector<Seconds>* out) {
  out->assign(bucket_targets_.size(), kInfiniteCost);
  forward_.Run(source, UpwardSearch::kForward, kInfiniteCost,
               [&](VertexId v, Seconds dist) {
                 ++stats_.upward_settled;
                 if (bucket_epoch_[v] != bucket_epoch_id_) return true;
                 for (const BucketEntry& entry : buckets_[v]) {
                   // Exact dyadic costs make this sum exact, so the minimum
                   // over meeting vertices is the true shortest distance
                   // bit-for-bit.
                   Seconds cand = dist + entry.cost;
                   if (cand < (*out)[entry.target_index]) {
                     (*out)[entry.target_index] = cand;
                   }
                 }
                 return true;
               });

  for (const auto& [from, to] : duplicate_targets_) {
    (*out)[to] = (*out)[from];
  }
}

void ChQuery::CostManyToMany(std::span<const VertexId> sources,
                             std::span<const VertexId> targets,
                             std::vector<Seconds>* out) {
  ++stats_.bucket_queries;
  BuildBuckets(targets);
  out->assign(sources.size() * targets.size(), kInfiniteCost);
  for (size_t s = 0; s < sources.size(); ++s) {
    SourceToBuckets(sources[s], &row_buf_);
    std::copy(row_buf_.begin(), row_buf_.end(),
              out->begin() + s * targets.size());
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
             sizeof(uint32_t) +
         bucket_targets_.capacity() * sizeof(VertexId) +
         duplicate_targets_.capacity() * sizeof(std::pair<int32_t, int32_t>);
}

}  // namespace mtshare
