#include "routing/one_to_many.h"

#include <algorithm>

#include "common/epoch.h"
#include "common/logging.h"

namespace mtshare {

InsertionCostBatch::InsertionCostBatch(const RoadNetwork& network,
                                       DistanceOracle* oracle)
    : oracle_(oracle) {
  MTSHARE_CHECK(oracle != nullptr);
  // Only the CH primes: an exact-table leg is one row read.
  if (oracle->backend() != OracleBackend::kCh) return;
  cid_epoch_.assign(network.num_vertices(), 0);
  cid_.assign(network.num_vertices(), 0);
  endpoints_.emplace(*oracle->ch());
  Grow(64);
}

void InsertionCostBatch::Grow(int32_t needed) {
  int32_t next = stride_ == 0 ? 64 : stride_;
  while (next <= needed) next *= 2;
  next = std::min(next, kDenseCap);
  if (next <= stride_) return;
  std::vector<Seconds> grown(size_t(next) * next, kUnprimed);
  // Re-lay existing rows at the new stride (T-Share grows the batch
  // incrementally between Prime() calls, so earlier values must survive).
  int32_t used = std::min<int32_t>(int32_t(cid_vertex_.size()), stride_);
  for (int32_t r = 0; r < used; ++r) {
    std::copy_n(matrix_.begin() + size_t(r) * stride_, used,
                grown.begin() + size_t(r) * next);
  }
  matrix_ = std::move(grown);
  stride_ = next;
}

int32_t InsertionCostBatch::CidFor(VertexId v) {
  if (cid_epoch_[v] == epoch_) return cid_[v];
  cid_epoch_[v] = epoch_;
  int32_t id = int32_t(cid_vertex_.size());
  cid_[v] = id;
  cid_vertex_.push_back(v);
  is_stop_.push_back(0);
  if (id >= stride_ && id < kDenseCap) Grow(id);
  return id;
}

void InsertionCostBatch::Store(VertexId a, VertexId b, Seconds cost) {
  int32_t ia = cid_[a];
  int32_t ib = cid_[b];
  if (ia < kDenseCap && ib < kDenseCap) {
    matrix_[size_t(ia) * stride_ + ib] = cost;
  } else {
    overflow_[Key(a, b)] = cost;
  }
}

bool InsertionCostBatch::Primed(VertexId a, VertexId b) const {
  const int32_t ia = cid_[a];
  const int32_t ib = cid_[b];
  return ia < kDenseCap && ib < kDenseCap
             ? matrix_[size_t(ia) * stride_ + ib] != kUnprimed
             : overflow_.find(Key(a, b)) != overflow_.end();
}

void InsertionCostBatch::Begin(VertexId origin, VertexId destination,
                               LastStopBuckets* store) {
  MTSHARE_CHECK(endpoints_.has_value() == (store != nullptr));
  store_ = store;
  if (store == nullptr) return;  // exact table: Cost() reads the table
  origin_ = origin;
  destination_ = destination;
  pending_taxis_.clear();
  endpoints_searched_ = false;
  // Wipe only the matrix region the previous dispatch could have written.
  int32_t used = std::min<int32_t>(int32_t(cid_vertex_.size()), stride_);
  if (used > 0) {
    std::fill_n(matrix_.begin(), size_t(used) * stride_, kUnprimed);
  }
  if (!overflow_.empty()) overflow_.clear();
  cid_vertex_.clear();
  is_stop_.clear();
  NextEpoch(epoch_, cid_epoch_);
  CidFor(origin);
  CidFor(destination);
}

void InsertionCostBatch::AddCandidate(TaxiId taxi,
                                      std::span<const VertexId> walk) {
  if (store_ == nullptr) return;
  MTSHARE_CHECK(!walk.empty());
  // The labels Prime() reads must be those of this walk.
  store_->Flush(taxi, walk.front());
  store_->SyncStops(taxi, walk.subspan(1));
  pending_taxis_.push_back(taxi);
}

void InsertionCostBatch::Prime() {
  if (pending_taxis_.empty()) return;  // always so on the exact table
  ++label_primes_;
  EndpointSearches& e = *endpoints_;
  if (!endpoints_searched_) {
    endpoints_searched_ = true;
    e.origin_out.Run(origin_, UpwardSearch::kForward, kInfiniteCost);
    e.origin_in.Run(origin_, UpwardSearch::kBackward, kInfiniteCost);
    e.dest_out.Run(destination_, UpwardSearch::kForward, kInfiniteCost);
    e.dest_in.Run(destination_, UpwardSearch::kBackward, kInfiniteCost);
    for (const UpwardSearch* run :
         {&e.origin_out, &e.origin_in, &e.dest_out, &e.dest_in}) {
      endpoint_settled_ += static_cast<int64_t>(run->reached().size());
    }
    Store(origin_, destination_, Meet(e.origin_out, e.dest_in));
  }
  for (TaxiId id : pending_taxis_) {
    MTSHARE_CHECK(!store_->dirty(id));  // AddCandidate flushed it
    const VertexId at = store_->anchor(id);
    CidFor(at);
    if (at != origin_ && !Primed(at, origin_)) {
      Store(at, origin_, store_->FromAnchor(id, e.origin_in));
    }
    VertexId prev = at;
    const UpwardLabel* prev_out = nullptr;  // null: prev is the location
    for (const StopLabels& stop : store_->stops(id)) {
      const VertexId s = stop.vertex;
      const int32_t c = CidFor(s);
      if (!is_stop_[c]) {
        is_stop_[c] = 1;
        Store(s, origin_, Meet(stop.out, e.origin_in));
        Store(s, destination_, Meet(stop.out, e.dest_in));
        Store(origin_, s, Meet(stop.in, e.origin_out));
        Store(destination_, s, Meet(stop.in, e.dest_out));
      }
      if (prev != s && !Primed(prev, s)) {
        e.loaded.Load(stop.in);
        Store(prev, s,
              prev_out == nullptr ? store_->FromAnchor(id, e.loaded)
                                  : Meet(*prev_out, e.loaded));
      }
      prev = s;
      prev_out = &stop.out;
    }
  }
  pending_taxis_.clear();
}

Seconds InsertionCostBatch::Cost(VertexId a, VertexId b) const {
  if (store_ == nullptr) return oracle_->Cost(a, b);
  if (a == b) return 0.0;
  if (cid_epoch_[a] == epoch_ && cid_epoch_[b] == epoch_) {
    int32_t ia = cid_[a];
    int32_t ib = cid_[b];
    if (ia < kDenseCap && ib < kDenseCap) {
      Seconds c = matrix_[size_t(ia) * stride_ + ib];
      if (c != kUnprimed) return c;
    } else {
      auto it = overflow_.find(Key(a, b));
      if (it != overflow_.end()) return it->second;
    }
  }
  ++fallback_queries_;
  return oracle_->Cost(a, b);
}

BatchRoutingStats InsertionCostBatch::stats() const {
  BatchRoutingStats s;
  s.fallback_queries = fallback_queries_;
  s.ch_bucket_queries = label_primes_;
  s.ch_upward_settled = endpoint_settled_;
  return s;
}

void InsertionCostBatch::ResetStats() {
  fallback_queries_ = 0;
  label_primes_ = 0;
  endpoint_settled_ = 0;
}

}  // namespace mtshare
