#ifndef MTSHARE_ROUTING_LAST_STOP_BUCKETS_H_
#define MTSHARE_ROUTING_LAST_STOP_BUCKETS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "routing/contraction_hierarchy.h"
#include "routing/upward_search.h"

namespace mtshare {

/// Work counters of one bucket store since construction, harvested into
/// Metrics::routing (bucket_candidates / bucket_maintenance_ms and the
/// ch_* label counters).
struct LastStopBucketStats {
  /// Taxi anchor rebuilds (one forward upward search each).
  int64_t updates = 0;
  /// Backward candidate sweeps answered.
  int64_t sweeps = 0;
  /// Taxis discovered within budget, summed over sweeps.
  int64_t found = 0;
  /// Vertices reached by sweeps (compare against the per-taxi point
  /// queries a sweep replaces).
  int64_t sweep_settled = 0;
  /// Vertices reached while depositing anchors.
  int64_t deposit_settled = 0;
  /// Vertices reached by stop-label searches (two per labelled stop).
  int64_t label_settled = 0;
  /// Entries stored in stop labels, after the stall test.
  int64_t label_entries = 0;
  /// Wall-clock milliseconds spent in FlushDirty (incremental upkeep of
  /// deposits — the cost per-taxi probes do not pay). Stop labels are
  /// synced by insertion (SyncStops), not here.
  double maintenance_ms = 0.0;
};

/// One scheduled stop's stored upward search spaces, both stall-pruned:
/// `out` from the stop (forward), `in` into it (backward).
struct StopLabels {
  VertexId vertex = kInvalidVertex;
  UpwardLabel out;
  UpwardLabel in;
};

/// Per-vehicle CH search spaces, the substrate of KaRRi (Laupichler &
/// Sanders, arXiv:2311.01581). Each taxi keeps two kinds:
///
///  - Location deposits: `(taxi, dist)` entries over the upward search
///    space of its current location (a forward UpwardSearch run), so
///    "which taxis can reach vertex o within budget b" becomes ONE
///    backward run from o, cut off at the budget, instead of one point
///    query per taxi (pickup reachability). Insertion priming reads the
///    same deposits as the taxi's location label.
///  - Stop labels: forward and backward labels of the scheduled stops,
///    synced when the taxi becomes an insertion candidate (SyncStops):
///    a stop is labelled once, the first time an insertion reads it, and
///    its labels are kept until the taxi executes it. Insertion priming
///    meets them with the request endpoints' searches and with each other
///    (InsertionCostBatch). A taxi that is not a candidate holds labels
///    that may lag its schedule, until its schedule empties and the
///    dispatcher drops them (SyncStops with no stop); a scheme that never
///    inserts (No-Sharing) holds none.
///
/// Every entry is stall-pruned (UpwardSearch::Stalled): a vertex whose
/// label a higher-ranked neighbour beats is never the top vertex of a
/// shortest up-down path, so dropping it leaves every meet and every
/// within-budget sweep distance exact, and keeps every taxi beyond budget
/// out of a sweep (any partial sum is a real path length).
///
/// The anchor is the taxi's *current location* — the exact vertex a
/// per-taxi probe `oracle->Cost(t.location, origin)` reads — so swept
/// distances are bit-identical to oracle costs (dyadic arc grid: every
/// up-down sum is exact, see ChQuery). Deposits are maintained lazily:
/// MarkDirty is O(1) and idempotent (the engine calls it on every taxi
/// movement/commit notification); a flush re-deposits a dirty taxi whose
/// location moved. SyncStops labels only the stops a taxi does not
/// already hold (insertion keeps event order and executed events pop from
/// the front, so held labels are matched in order).
///
/// Sweeps are budget-truncated with kBudgetSlack headroom: every taxi with
/// true distance <= budget + slack is reported with its exact distance
/// (the run reaches its witness meeting vertex within the cutoff); taxis
/// beyond are never reported — the caller's exact `now + d <= deadline`
/// check rejects them, exactly as a per-taxi probe does. Not thread-safe;
/// one store per dispatcher.
class LastStopBuckets {
 public:
  LastStopBuckets(const ContractionHierarchy& ch, int32_t num_taxis);

  int32_t num_taxis() const {
    return static_cast<int32_t>(handles_.size());
  }

  /// Marks a taxi's deposits stale (O(1)). Safe to call for any state
  /// change.
  void MarkDirty(TaxiId id) { dirty_[id] = 1; }
  bool dirty(TaxiId id) const { return dirty_[id] != 0; }
  /// The vertex a taxi's live deposits were made from (kInvalidVertex
  /// before the first flush).
  VertexId anchor(TaxiId id) const { return anchor_[id]; }

  /// A taxi's current location.
  using LocationFn = std::function<VertexId(TaxiId)>;

  /// Flushes every dirty taxi from `location_of(id)`. Call before Sweep so
  /// the deposits match the fleet. Timed into stats().maintenance_ms.
  void FlushDirty(const LocationFn& location_of);
  /// Flushes taxi `id` alone, if dirty: re-deposits it when `location` is
  /// not its anchor.
  void Flush(TaxiId id, VertexId location);
  /// Brings taxi `id`'s stop labels in line with `stops` (its scheduled
  /// stop vertices, in schedule order): keeps the held labels that still
  /// match in order, drops the rest and labels each stop it does not hold.
  void SyncStops(TaxiId id, std::span<const VertexId> stops);

  /// Backward upward sweep from `origin` with cutoff budget + kBudgetSlack,
  /// so it reaches exactly the vertices within the cutoff. Records, per
  /// discovered taxi, the minimum over reached meeting vertices of (deposit
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

  /// Cost from taxi `id`'s anchor to the source of `into`'s last run (a
  /// backward search run to exhaustion, or a loaded backward label): the
  /// meet of its deposits with it.
  Seconds FromAnchor(TaxiId id, const UpwardSearch& into) const;
  /// The stop labels taxi `id` holds; after SyncStops, one per scheduled
  /// stop, in schedule order.
  std::span<const StopLabels> stops(TaxiId id) const { return stops_[id]; }
  /// Taxi `id`'s deposits as a location label, in deposit order (test and
  /// diagnostic access).
  UpwardLabel AnchorLabel(TaxiId id) const;

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
  /// removal can fix the moved entry's handle in O(1). 16 bytes.
  struct BucketEntry {
    Seconds dist;
    TaxiId taxi;
    uint32_t slot;
  };
  static_assert(sizeof(BucketEntry) == 16);
  /// One taxi-side handle: where deposit `slot` of this taxi lives.
  struct Handle {
    VertexId vertex;
    uint32_t pos;  // index into buckets_[vertex]
  };

  void RemoveDeposits(TaxiId id);
  void Deposit(TaxiId id, VertexId anchor);
  /// One stall-pruned label of `source`, sized exactly.
  UpwardLabel Label(VertexId source, UpwardSearch::Direction direction);

  std::vector<std::vector<BucketEntry>> buckets_;  // per vertex, unsorted
  std::vector<std::vector<Handle>> handles_;       // per taxi
  std::vector<std::vector<StopLabels>> stops_;     // per taxi
  std::vector<VertexId> anchor_;                   // per taxi
  std::vector<uint8_t> dirty_;                     // per taxi

  // Forward runs deposit anchors and label stops, backward runs label
  // stops and sweep origins.
  UpwardSearch search_;
  // Label() scratch: the kept entries of one run.
  UpwardLabel label_buf_;

  // Per-taxi sweep results, epoch-stamped per Sweep call.
  std::vector<Seconds> swept_dist_;
  std::vector<uint32_t> swept_epoch_;
  uint32_t sweep_epoch_id_ = 0;
  std::vector<TaxiId> found_;

  LastStopBucketStats stats_;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_LAST_STOP_BUCKETS_H_
