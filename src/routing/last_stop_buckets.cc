#include "routing/last_stop_buckets.h"

#include "common/epoch.h"
#include "common/logging.h"
#include "common/timer.h"

namespace mtshare {

LastStopBuckets::LastStopBuckets(const ContractionHierarchy& ch,
                                 int32_t num_taxis)
    : search_(ch) {
  MTSHARE_CHECK(num_taxis >= 0);
  buckets_.resize(ch.num_vertices());
  handles_.resize(num_taxis);
  anchor_.assign(num_taxis, kInvalidVertex);
  dirty_.assign(num_taxis, 1);  // everything deposits on the first flush
  swept_dist_.assign(num_taxis, 0.0);
  swept_epoch_.assign(num_taxis, 0);
}

void LastStopBuckets::RemoveDeposits(TaxiId id) {
  for (const Handle& h : handles_[id]) {
    std::vector<BucketEntry>& bucket = buckets_[h.vertex];
    const uint32_t pos = h.pos;
    BucketEntry moved = bucket.back();
    bucket[pos] = moved;
    bucket.pop_back();
    if (pos < bucket.size()) {
      // A different taxi's entry was swapped into `pos` (one entry per
      // taxi per vertex, so it cannot be another handle of `id`); fix its
      // owner's back-reference.
      handles_[moved.taxi][moved.slot].pos = pos;
    }
  }
  live_entries_ -= static_cast<int64_t>(handles_[id].size());
  handles_[id].clear();
}

void LastStopBuckets::Deposit(TaxiId id, VertexId anchor) {
  // Forward upward search from the anchor, run to exhaustion — the same
  // search ChQuery::Cost runs from its source, so every settled vertex v
  // carries the exact minimal upward-path cost anchor -> v.
  std::vector<Handle>& handles = handles_[id];
  search_.Run(anchor, UpwardSearch::kForward, kInfiniteCost,
              [&](VertexId v, Seconds dist) {
                ++stats_.deposit_settled;
                buckets_[v].push_back(
                    {id, dist, static_cast<uint32_t>(handles.size())});
                handles.push_back(
                    {v, static_cast<uint32_t>(buckets_[v].size() - 1)});
                return true;
              });
  live_entries_ += static_cast<int64_t>(handles.size());
  anchor_[id] = anchor;
}

void LastStopBuckets::FlushDirty(
    const std::function<VertexId(TaxiId)>& anchor_of) {
  WallTimer timer;
  bool any = false;
  for (TaxiId id = 0; id < num_taxis(); ++id) {
    if (!dirty_[id]) continue;
    any = true;
    dirty_[id] = 0;
    VertexId anchor = anchor_of(id);
    if (anchor == anchor_[id]) continue;  // moved and returned: still valid
    RemoveDeposits(id);
    Deposit(id, anchor);
    ++stats_.updates;
  }
  if (any) stats_.maintenance_ms += timer.ElapsedMillis();
}

void LastStopBuckets::Sweep(VertexId origin, Seconds budget) {
  ++stats_.sweeps;
  NextEpoch(sweep_epoch_id_, swept_epoch_);
  found_.clear();
  const Seconds cutoff = budget + kBudgetSlack;
  if (!(cutoff >= 0.0)) return;  // negative budget: nothing is reachable

  // Backward upward search from the origin over DownArcs: a settled vertex
  // v reaches the origin along a down-path of exact cost `dist`, so
  // deposit.dist + dist is an exact up-down path anchor -> origin. The run
  // settles every vertex with final distance <= cutoff — including the
  // meeting vertex realizing the true distance of every taxi within
  // budget.
  search_.Run(origin, UpwardSearch::kBackward, cutoff,
              [&](VertexId v, Seconds dist) {
                ++stats_.sweep_settled;
                for (const BucketEntry& entry : buckets_[v]) {
                  Seconds cand = entry.dist + dist;
                  if (cand > cutoff) continue;
                  if (swept_epoch_[entry.taxi] != sweep_epoch_id_) {
                    swept_epoch_[entry.taxi] = sweep_epoch_id_;
                    swept_dist_[entry.taxi] = cand;
                    found_.push_back(entry.taxi);
                  } else if (cand < swept_dist_[entry.taxi]) {
                    swept_dist_[entry.taxi] = cand;
                  }
                }
                return true;
              });
  stats_.found += static_cast<int64_t>(found_.size());
}

size_t LastStopBuckets::MemoryBytes() const {
  size_t bytes = buckets_.size() * sizeof(std::vector<BucketEntry>) +
                 handles_.size() * sizeof(std::vector<Handle>);
  for (const auto& bucket : buckets_) {
    bytes += bucket.capacity() * sizeof(BucketEntry);
  }
  for (const auto& handles : handles_) {
    bytes += handles.capacity() * sizeof(Handle);
  }
  bytes += (anchor_.size() + found_.capacity()) * sizeof(VertexId);
  bytes += dirty_.size() * sizeof(uint8_t);
  bytes += swept_dist_.size() * sizeof(Seconds);
  bytes += swept_epoch_.size() * sizeof(uint32_t);
  return bytes + search_.MemoryBytes();
}

}  // namespace mtshare
