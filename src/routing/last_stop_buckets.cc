#include "routing/last_stop_buckets.h"

#include <algorithm>

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
  stops_.resize(num_taxis);
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
  handles_[id].clear();
}

void LastStopBuckets::Deposit(TaxiId id, VertexId anchor) {
  // Forward upward search from the anchor, run to exhaustion — the same
  // search ChQuery::Cost runs from its source, so every reached vertex v
  // carries the exact minimal upward-path cost anchor -> v. Stalled
  // vertices are not deposited.
  std::vector<Handle>& handles = handles_[id];
  search_.Run(anchor, UpwardSearch::kForward, kInfiniteCost);
  stats_.deposit_settled += static_cast<int64_t>(search_.reached().size());
  for (const VertexId v : search_.reached()) {
    if (search_.Stalled(v)) continue;
    buckets_[v].push_back({search_.Distance(v), id,
                           static_cast<uint32_t>(handles.size())});
    handles.push_back({v, static_cast<uint32_t>(buckets_[v].size() - 1)});
  }
  anchor_[id] = anchor;
}

UpwardLabel LastStopBuckets::Label(VertexId source,
                                   UpwardSearch::Direction direction) {
  label_buf_.vertices.clear();
  label_buf_.costs.clear();
  search_.Run(source, direction, kInfiniteCost);
  stats_.label_settled += static_cast<int64_t>(search_.reached().size());
  for (const VertexId v : search_.reached()) {
    if (search_.Stalled(v)) continue;
    label_buf_.vertices.push_back(v);
    label_buf_.costs.push_back(search_.Distance(v));
  }
  stats_.label_entries += static_cast<int64_t>(label_buf_.size());
  // Copies sized exactly: held labels never grow.
  return UpwardLabel{
      std::vector<VertexId>(label_buf_.vertices.begin(),
                            label_buf_.vertices.end()),
      std::vector<Seconds>(label_buf_.costs.begin(), label_buf_.costs.end())};
}

void LastStopBuckets::SyncStops(TaxiId id, std::span<const VertexId> stops) {
  // held[0, i) matches stops[0, i). A held label found further on is
  // reused and the stale labels before it (executed stops) are dropped;
  // a stop with no held label ahead is new and is labelled in place.
  std::vector<StopLabels>& held = stops_[id];
  for (size_t i = 0; i < stops.size(); ++i) {
    size_t k = i;
    while (k < held.size() && held[k].vertex != stops[i]) ++k;
    if (k < held.size()) {
      held.erase(held.begin() + i, held.begin() + k);
      continue;
    }
    held.insert(held.begin() + i,
                StopLabels{stops[i], Label(stops[i], UpwardSearch::kForward),
                           Label(stops[i], UpwardSearch::kBackward)});
  }
  held.resize(stops.size());
}

void LastStopBuckets::Flush(TaxiId id, VertexId location) {
  if (!dirty_[id]) return;
  dirty_[id] = 0;
  if (location == anchor_[id]) return;  // an unmoved taxi keeps them
  RemoveDeposits(id);
  Deposit(id, location);
  ++stats_.updates;
}

void LastStopBuckets::FlushDirty(const LocationFn& location_of) {
  WallTimer timer;
  bool any = false;
  for (TaxiId id = 0; id < num_taxis(); ++id) {
    if (!dirty_[id]) continue;
    any = true;
    Flush(id, location_of(id));
  }
  if (any) stats_.maintenance_ms += timer.ElapsedMillis();
}

void LastStopBuckets::Sweep(VertexId origin, Seconds budget) {
  ++stats_.sweeps;
  NextEpoch(sweep_epoch_id_, swept_epoch_);
  found_.clear();
  const Seconds cutoff = budget + kBudgetSlack;
  if (!(cutoff >= 0.0)) return;  // negative budget: nothing is reachable

  // Backward upward search from the origin over DownArcs: a reached vertex
  // v reaches the origin along a down-path of exact cost Distance(v), so
  // deposit.dist + Distance(v) is an exact up-down path anchor -> origin.
  // The run reaches every vertex with distance <= cutoff — including the
  // meeting vertex realizing the true distance of every taxi within
  // budget, whose deposit the stall test keeps.
  search_.Run(origin, UpwardSearch::kBackward, cutoff);
  stats_.sweep_settled += static_cast<int64_t>(search_.reached().size());
  for (const VertexId v : search_.reached()) {
    const Seconds dist = search_.Distance(v);
    for (const BucketEntry& entry : buckets_[v]) {
      const Seconds cand = entry.dist + dist;
      if (cand > cutoff) continue;
      if (swept_epoch_[entry.taxi] != sweep_epoch_id_) {
        swept_epoch_[entry.taxi] = sweep_epoch_id_;
        swept_dist_[entry.taxi] = cand;
        found_.push_back(entry.taxi);
      } else if (cand < swept_dist_[entry.taxi]) {
        swept_dist_[entry.taxi] = cand;
      }
    }
  }
  stats_.found += static_cast<int64_t>(found_.size());
}

Seconds LastStopBuckets::FromAnchor(TaxiId id,
                                    const UpwardSearch& into) const {
  Seconds best = kInfiniteCost;
  for (const Handle& h : handles_[id]) {
    if (!into.Reached(h.vertex)) continue;
    best = std::min(best,
                    buckets_[h.vertex][h.pos].dist + into.Distance(h.vertex));
  }
  return best;
}

UpwardLabel LastStopBuckets::AnchorLabel(TaxiId id) const {
  UpwardLabel label;
  for (const Handle& h : handles_[id]) {
    label.vertices.push_back(h.vertex);
    label.costs.push_back(buckets_[h.vertex][h.pos].dist);
  }
  return label;
}

size_t LastStopBuckets::MemoryBytes() const {
  size_t bytes = buckets_.size() * sizeof(std::vector<BucketEntry>) +
                 handles_.size() * sizeof(std::vector<Handle>) +
                 stops_.size() * sizeof(std::vector<StopLabels>);
  for (const auto& bucket : buckets_) {
    bytes += bucket.capacity() * sizeof(BucketEntry);
  }
  for (const auto& handles : handles_) {
    bytes += handles.capacity() * sizeof(Handle);
  }
  for (const auto& held : stops_) {
    bytes += held.capacity() * sizeof(StopLabels);
    for (const StopLabels& s : held) {
      bytes += s.out.MemoryBytes() + s.in.MemoryBytes();
    }
  }
  bytes += (anchor_.size() + found_.capacity()) * sizeof(VertexId);
  bytes += dirty_.size() * sizeof(uint8_t);
  bytes += swept_dist_.size() * sizeof(Seconds);
  bytes += swept_epoch_.size() * sizeof(uint32_t);
  return bytes + search_.MemoryBytes() + label_buf_.MemoryBytes();
}

}  // namespace mtshare
