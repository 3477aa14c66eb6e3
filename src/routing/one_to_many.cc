#include "routing/one_to_many.h"

#include <algorithm>

#include "common/epoch.h"
#include "common/logging.h"

namespace mtshare {

InsertionCostBatch::InsertionCostBatch(const RoadNetwork& network,
                                       DistanceOracle* oracle)
    : oracle_(oracle),
      cid_epoch_(network.num_vertices(), 0),
      cid_(network.num_vertices(), 0) {
  MTSHARE_CHECK(oracle != nullptr);
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
  if (pending_succ_.size() <= size_t(id)) pending_succ_.emplace_back();
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

void InsertionCostBatch::Begin(VertexId origin, VertexId destination) {
  origin_ = origin;
  destination_ = destination;
  // Wipe only the matrix region the previous dispatch could have written.
  int32_t used = std::min<int32_t>(int32_t(cid_vertex_.size()), stride_);
  if (used > 0) {
    std::fill_n(matrix_.begin(), size_t(used) * stride_, kUnprimed);
  }
  if (!overflow_.empty()) overflow_.clear();
  cid_vertex_.clear();
  is_stop_.clear();
  for (int32_t c : pending_sources_) pending_succ_[c].clear();
  pending_sources_.clear();
  pending_stops_.clear();
  NextEpoch(epoch_, cid_epoch_);
  CidFor(origin);
  CidFor(destination);
}

void InsertionCostBatch::AddCandidate(std::span<const VertexId> stops) {
  int32_t prev_cid = -1;
  VertexId prev = kInvalidVertex;
  for (VertexId v : stops) {
    int32_t c = CidFor(v);
    if (!is_stop_[c]) {
      is_stop_[c] = 1;
      pending_stops_.push_back(v);
    }
    if (prev_cid >= 0 && prev != v) {
      bool primed = prev_cid < kDenseCap && c < kDenseCap
                        ? matrix_[size_t(prev_cid) * stride_ + c] != kUnprimed
                        : overflow_.find(Key(prev, v)) != overflow_.end();
      if (!primed) {
        std::vector<VertexId>& succ = pending_succ_[prev_cid];
        if (std::find(succ.begin(), succ.end(), v) == succ.end()) {
          if (succ.empty()) pending_sources_.push_back(prev_cid);
          succ.push_back(v);
        }
      }
    }
    prev = v;
    prev_cid = c;
  }
}

void InsertionCostBatch::Gather(std::span<const CostFan> fans) {
  oracle_->CostFans(fans, &costs_);
  ++batch_queries_;
  size_t at = 0;
  for (const CostFan& fan : fans) {
    for (VertexId t : fan.targets) Store(fan.source, t, costs_[at++]);
  }
}

void InsertionCostBatch::Prime() {
  if (pending_stops_.empty() && pending_sources_.empty()) return;
  // Two calls, not one: on the CH every fan of a call sweeps the buckets of
  // all of the call's targets, so merging would have each per-stop sweep,
  // which needs only its successors and the two endpoints, also scan the
  // entries of every fresh stop (measured slower on peak_ch, with higher
  // peak RSS).
  if (!pending_stops_.empty()) {
    // Endpoint fans over the freshly seen stops.
    origin_targets_.assign(pending_stops_.begin(), pending_stops_.end());
    origin_targets_.push_back(destination_);
    fans_.clear();
    fans_.push_back({origin_, origin_targets_});
    fans_.push_back({destination_, pending_stops_});
    Gather(fans_);
    // Every stop also needs its costs *to* both request endpoints.
    for (VertexId s : pending_stops_) {
      int32_t c = cid_[s];
      std::vector<VertexId>& succ = pending_succ_[c];
      if (succ.empty()) pending_sources_.push_back(c);
      succ.push_back(origin_);
      succ.push_back(destination_);
    }
  }
  // Per-stop fans: each pending source against its base-schedule
  // successors plus both request endpoints.
  fans_.clear();
  for (int32_t c : pending_sources_) {
    fans_.push_back({cid_vertex_[c], pending_succ_[c]});
  }
  Gather(fans_);
  for (int32_t c : pending_sources_) pending_succ_[c].clear();
  pending_sources_.clear();
  pending_stops_.clear();
}

Seconds InsertionCostBatch::Cost(VertexId a, VertexId b) const {
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
  s.batch_queries = batch_queries_;
  s.fallback_queries = fallback_queries_;
  return s;
}

void InsertionCostBatch::ResetStats() {
  batch_queries_ = 0;
  fallback_queries_ = 0;
}

}  // namespace mtshare
