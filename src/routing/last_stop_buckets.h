#ifndef MTSHARE_ROUTING_LAST_STOP_BUCKETS_H_
#define MTSHARE_ROUTING_LAST_STOP_BUCKETS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "routing/contraction_hierarchy.h"
#include "routing/upward_search.h"

namespace mtshare {

/// Work counters of one bucket store since construction, harvested into
/// Metrics::routing (bucket_candidates / bucket_maintenance_ms).
struct LastStopBucketStats {
  /// Taxi anchor rebuilds (one forward upward search each).
  int64_t updates = 0;
  /// Backward candidate sweeps answered.
  int64_t sweeps = 0;
  /// Taxis discovered within budget, summed over sweeps.
  int64_t found = 0;
  /// Vertices settled by sweeps (compare against the per-taxi point
  /// queries a sweep replaces).
  int64_t sweep_settled = 0;
  /// Vertices settled while depositing anchors.
  int64_t deposit_settled = 0;
  /// Wall-clock milliseconds spent in FlushDirty (incremental bucket
  /// maintenance — the cost per-taxi probes do not pay).
  double maintenance_ms = 0.0;
};

/// Per-vehicle CH bucket entries, the candidate-search substrate of KaRRi
/// (Laupichler & Sanders, arXiv:2311.01581): each taxi deposits
/// `(taxi, dist)` entries over the upward search space of its anchor
/// vertex (a forward UpwardSearch run), so "which taxis can reach vertex o
/// within budget b" becomes ONE backward run from o, cut off at the
/// budget, instead of one point query per taxi.
///
/// The anchor is the taxi's *current location* — the exact vertex a
/// per-taxi probe `oracle->Cost(t.location, origin)` reads — so swept
/// distances are bit-identical to oracle costs (dyadic arc grid: every
/// up-down sum is exact, see ChQuery). Anchors are maintained lazily:
/// MarkDirty is O(1) and idempotent (the engine calls it on every taxi
/// movement/commit notification), FlushDirty re-deposits only the dirty
/// taxis before a sweep reads the store.
///
/// Sweeps are budget-truncated with kBudgetSlack headroom: every taxi with
/// true distance <= budget + slack is reported with its exact distance
/// (its witness meeting vertex settles before the cutoff); taxis beyond
/// may be missing or carry a partial-min overestimate — both are rejected
/// by the caller's exact `now + d <= deadline` check, exactly as a
/// per-taxi probe rejects them. Not thread-safe; one store per dispatcher.
class LastStopBuckets {
 public:
  LastStopBuckets(const ContractionHierarchy& ch, int32_t num_taxis);

  int32_t num_taxis() const {
    return static_cast<int32_t>(handles_.size());
  }

  /// Marks a taxi's deposits stale (O(1)). Safe to call for any state
  /// change; only location changes actually move the anchor.
  void MarkDirty(TaxiId id) { dirty_[id] = 1; }
  bool dirty(TaxiId id) const { return dirty_[id] != 0; }
  /// The vertex a taxi's live deposits were made from (kInvalidVertex
  /// before the first flush).
  VertexId anchor(TaxiId id) const { return anchor_[id]; }

  /// Re-deposits every dirty taxi from `anchor_of(id)` (its current
  /// location). Call before Sweep so the store matches the fleet.
  void FlushDirty(const std::function<VertexId(TaxiId)>& anchor_of);

  /// Backward upward sweep from `origin` with cutoff budget + kBudgetSlack,
  /// so it settles exactly the vertices within the cutoff. Records, per
  /// discovered taxi, the minimum over settled meeting vertices of (deposit
  /// dist + sweep dist) — the exact anchor->origin distance whenever it is
  /// <= budget + slack.
  void Sweep(VertexId origin, Seconds budget);

  /// Taxis discovered by the last Sweep (unspecified order).
  const std::vector<TaxiId>& found() const { return found_; }
  /// Distance recorded by the last Sweep (kInfiniteCost if not found).
  Seconds SweptDistance(TaxiId id) const {
    return swept_epoch_[id] == sweep_epoch_id_ ? swept_dist_[id]
                                               : kInfiniteCost;
  }

  /// Headroom added to the sweep cutoff so FP rounding in the caller's
  /// `deadline - now` budget can never hide a taxi the exact predicate
  /// would accept (rounding error is ~ulp of seconds-scale values,
  /// orders of magnitude below this).
  static constexpr Seconds kBudgetSlack = 1e-3;

  const LastStopBucketStats& stats() const { return stats_; }
  size_t MemoryBytes() const;

 private:
  /// One deposit: `taxi` reaches this vertex from its anchor at cost
  /// `dist`; `slot` back-references handles_[taxi][slot] so swap-pop
  /// removal can fix the moved entry's handle in O(1).
  struct BucketEntry {
    TaxiId taxi;
    Seconds dist;
    uint32_t slot;
  };
  /// One taxi-side handle: where deposit `slot` of this taxi lives.
  struct Handle {
    VertexId vertex;
    uint32_t pos;  // index into buckets_[vertex]
  };

  void RemoveDeposits(TaxiId id);
  void Deposit(TaxiId id, VertexId anchor);

  std::vector<std::vector<BucketEntry>> buckets_;  // per vertex, unsorted
  std::vector<std::vector<Handle>> handles_;       // per taxi
  std::vector<VertexId> anchor_;                   // per taxi
  std::vector<uint8_t> dirty_;                     // per taxi
  int64_t live_entries_ = 0;

  // Forward runs deposit anchors; backward runs sweep origins.
  UpwardSearch search_;

  // Per-taxi sweep results, epoch-stamped per Sweep call.
  std::vector<Seconds> swept_dist_;
  std::vector<uint32_t> swept_epoch_;
  uint32_t sweep_epoch_id_ = 0;
  std::vector<TaxiId> found_;

  LastStopBucketStats stats_;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_LAST_STOP_BUCKETS_H_
