#include "routing/last_stop_buckets.h"

#include <algorithm>

#include "common/epoch.h"
#include "common/logging.h"
#include "common/timer.h"

namespace mtshare {

LastStopBuckets::LastStopBuckets(const ContractionHierarchy& ch,
                                 int32_t num_taxis)
    : search_(ch),
      origin_out_(ch),
      origin_in_(ch),
      dest_out_(ch),
      dest_in_(ch) {
  MTSHARE_CHECK(num_taxis >= 0);
  buckets_.resize(ch.num_vertices());
  handles_.resize(num_taxis);
  stops_.resize(num_taxis);
  anchor_.assign(num_taxis, kInvalidVertex);
  dirty_.assign(num_taxis, 1);  // everything deposits on the first flush
  swept_dist_.assign(num_taxis, 0.0);
  swept_epoch_.assign(num_taxis, 0);
  cid_epoch_.assign(ch.num_vertices(), 0);
  cid_.assign(ch.num_vertices(), 0);
  Grow(64);
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
  // search a point query runs from its source, so every reached vertex v
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

void LastStopBuckets::Grow(int32_t needed) {
  int32_t next = stride_ == 0 ? 64 : stride_;
  while (next <= needed) next *= 2;
  next = std::min(next, kDenseCap);
  if (next <= stride_) return;
  std::vector<Seconds> grown(size_t(next) * next, kUnprimed);
  // Re-lay existing rows at the new stride (T-Share grows the matrix
  // incrementally between Prime() calls, so earlier values must survive).
  int32_t used = std::min<int32_t>(int32_t(cid_vertex_.size()), stride_);
  for (int32_t r = 0; r < used; ++r) {
    std::copy_n(matrix_.begin() + size_t(r) * stride_, used,
                grown.begin() + size_t(r) * next);
  }
  matrix_ = std::move(grown);
  stride_ = next;
}

int32_t LastStopBuckets::CidFor(VertexId v) {
  if (cid_epoch_[v] == cid_epoch_id_) return cid_[v];
  cid_epoch_[v] = cid_epoch_id_;
  int32_t id = int32_t(cid_vertex_.size());
  cid_[v] = id;
  cid_vertex_.push_back(v);
  is_stop_.push_back(0);
  if (id >= stride_ && id < kDenseCap) Grow(id);
  return id;
}

void LastStopBuckets::Store(VertexId a, VertexId b, Seconds cost) {
  int32_t ia = cid_[a];
  int32_t ib = cid_[b];
  if (ia < kDenseCap && ib < kDenseCap) {
    matrix_[size_t(ia) * stride_ + ib] = cost;
  } else {
    overflow_[Key(a, b)] = cost;
  }
}

Seconds LastStopBuckets::Stored(VertexId a, VertexId b) const {
  const int32_t ia = cid_[a];
  const int32_t ib = cid_[b];
  if (ia < kDenseCap && ib < kDenseCap) {
    return matrix_[size_t(ia) * stride_ + ib];
  }
  auto it = overflow_.find(Key(a, b));
  return it == overflow_.end() ? kUnprimed : it->second;
}

void LastStopBuckets::Begin(VertexId origin, VertexId destination) {
  origin_ = origin;
  destination_ = destination;
  pending_taxis_.clear();
  endpoints_searched_ = false;
  // Wipe only the matrix region the previous request could have written.
  int32_t used = std::min<int32_t>(int32_t(cid_vertex_.size()), stride_);
  if (used > 0) {
    std::fill_n(matrix_.begin(), size_t(used) * stride_, kUnprimed);
  }
  if (!overflow_.empty()) overflow_.clear();
  cid_vertex_.clear();
  is_stop_.clear();
  NextEpoch(cid_epoch_id_, cid_epoch_);
  CidFor(origin);
  CidFor(destination);
}

void LastStopBuckets::AddCandidate(TaxiId taxi,
                                   std::span<const VertexId> walk) {
  MTSHARE_CHECK(!walk.empty());
  // The labels Prime() reads must be those of this walk.
  Flush(taxi, walk.front());
  SyncStops(taxi, walk.subspan(1));
  pending_taxis_.push_back(taxi);
}

void LastStopBuckets::Prime() {
  if (pending_taxis_.empty()) return;
  ++stats_.primes;
  if (!endpoints_searched_) {
    endpoints_searched_ = true;
    origin_out_.Run(origin_, UpwardSearch::kForward, kInfiniteCost);
    origin_in_.Run(origin_, UpwardSearch::kBackward, kInfiniteCost);
    dest_out_.Run(destination_, UpwardSearch::kForward, kInfiniteCost);
    dest_in_.Run(destination_, UpwardSearch::kBackward, kInfiniteCost);
    for (const UpwardSearch* run :
         {&origin_out_, &origin_in_, &dest_out_, &dest_in_}) {
      stats_.endpoint_settled += static_cast<int64_t>(run->reached().size());
    }
    Store(origin_, destination_, Meet(origin_out_, dest_in_));
  }
  for (TaxiId id : pending_taxis_) {
    MTSHARE_CHECK(!dirty_[id]);  // AddCandidate flushed it
    const VertexId at = anchor_[id];
    CidFor(at);
    if (at != origin_ && Stored(at, origin_) == kUnprimed) {
      Store(at, origin_, FromAnchor(id, origin_in_));
    }
    VertexId prev = at;
    const UpwardLabel* prev_out = nullptr;  // null: prev is the location
    for (const StopLabels& stop : stops_[id]) {
      const VertexId s = stop.vertex;
      const int32_t c = CidFor(s);
      if (!is_stop_[c]) {
        is_stop_[c] = 1;
        Store(s, origin_, Meet(stop.out, origin_in_));
        Store(s, destination_, Meet(stop.out, dest_in_));
        Store(origin_, s, Meet(stop.in, origin_out_));
        Store(destination_, s, Meet(stop.in, dest_out_));
      }
      if (prev != s && Stored(prev, s) == kUnprimed) {
        search_.Load(stop.in);
        Store(prev, s,
              prev_out == nullptr ? FromAnchor(id, search_)
                                  : Meet(*prev_out, search_));
      }
      prev = s;
      prev_out = &stop.out;
    }
  }
  pending_taxis_.clear();
}

Seconds LastStopBuckets::Cost(VertexId a, VertexId b) {
  if (a == b) return 0.0;
  if (cid_epoch_[a] == cid_epoch_id_ && cid_epoch_[b] == cid_epoch_id_) {
    const Seconds cost = Stored(a, b);
    if (cost != kUnprimed) return cost;
  }
  // Prime() stored no such leg: a point query, a's forward label (counted
  // as a stop label) met with a backward run from b.
  ++stats_.fallback_queries;
  const UpwardLabel from = Label(a, UpwardSearch::kForward);
  search_.Run(b, UpwardSearch::kBackward, kInfiniteCost);
  stats_.endpoint_settled += static_cast<int64_t>(search_.reached().size());
  return Meet(from, search_);
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
  bytes += (cid_epoch_.size() + cid_.size()) * sizeof(uint32_t) +
           cid_vertex_.capacity() * sizeof(VertexId) + is_stop_.capacity() +
           matrix_.capacity() * sizeof(Seconds) +
           overflow_.size() * (sizeof(uint64_t) + sizeof(Seconds));
  for (const UpwardSearch* search :
       {&search_, &origin_out_, &origin_in_, &dest_out_, &dest_in_}) {
    bytes += search->MemoryBytes();
  }
  return bytes + label_buf_.MemoryBytes();
}

}  // namespace mtshare
