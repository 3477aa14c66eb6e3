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
  /// synced by insertion (Prime), not here.
  double maintenance_ms = 0.0;
  /// Candidates primed, one Prime() call each (a request's first also
  /// runs its four endpoint searches).
  int64_t primes = 0;
  /// Vertices reached by the request endpoints' searches and by the
  /// backward runs of fallbacks.
  int64_t endpoint_settled = 0;
  /// Legs Cost() was asked for that the last Prime() had not stored, each
  /// answered by a point query. Expected 0: nonzero means Prime()'s
  /// closure misses a leg the insertion DP reads.
  int64_t fallback_queries = 0;
};

/// One scheduled stop's stored upward search spaces, both stall-pruned:
/// `out` from the stop (forward), `in` into it (backward).
struct StopLabels {
  VertexId vertex = kInvalidVertex;
  UpwardLabel out;
  UpwardLabel in;
};

/// Per-vehicle CH search spaces and the insertion legs met from them, as
/// KaRRi (Laupichler & Sanders, arXiv:2311.01581) keeps them. Each taxi
/// keeps two kinds of search space:
///
///  - Location deposits: `(taxi, dist)` entries over the upward search
///    space of its current location (a forward UpwardSearch run), so
///    "which taxis can reach vertex o within budget b" becomes ONE
///    backward run from o, cut off at the budget, instead of one point
///    query per taxi (pickup reachability). Insertion priming reads the
///    same deposits as the taxi's location label.
///  - Stop labels: forward and backward labels of the scheduled stops,
///    synced when the taxi becomes an insertion candidate (Prime):
///    a stop is labelled once, the first time an insertion reads it, and
///    its labels are kept until the taxi executes it. A taxi that is not a
///    candidate holds labels that may lag its schedule, until its schedule
///    empties and the dispatcher drops them (SyncStops with no stop); a
///    scheme that never inserts (No-Sharing) holds none.
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
/// up-down sum is exact, see UpwardSearch). Deposits are maintained
/// lazily: MarkDirty is O(1) and idempotent (the engine calls it on every
/// taxi movement/commit notification); a flush re-deposits a dirty taxi
/// whose location moved. SyncStops labels only the stops a taxi does not
/// already hold (insertion keeps event order and executed events pop from
/// the front, so held labels are matched in order).
///
/// Sweeps are budget-truncated with kBudgetSlack headroom: every taxi with
/// true distance <= budget + slack is reported with its exact distance
/// (the run reaches its witness meeting vertex within the cutoff); taxis
/// beyond are never reported — the caller's exact `now + d <= deadline`
/// check rejects them, exactly as a per-taxi probe does.
///
/// Insertion legs (DESIGN.md §7), one candidate at a time, as Algorithm 1
/// prices them: Begin(origin, destination) once per request, then
/// Prime(taxi, walk) right before that candidate's insertion DP, which
/// reads Cost(). The legs of any insertion walk are pairs over {taxi
/// location L, schedule stops s, request origin o, request destination d}
/// where base-schedule adjacency is preserved (insertion never removes
/// events), so the closure Prime() stores is L -> o, o/d -> every stop,
/// every stop -> o/d, every base-adjacent pair (L -> s1 and s_k -> s_k+1),
/// and o -> d. Each leg is the meet of two upward search spaces: the
/// request's four endpoint searches, run once per request to exhaustion,
/// and the taxi's labels:
///
///   L -> o      deposits against o's backward search
///   L -> s1     deposits against s1's backward label
///   s -> o, d   s's forward label against o's, d's backward searches
///   o, d -> s   s's backward label against o's, d's forward searches
///   s -> s'     s's forward label against s''s backward label
///   o -> d      o's forward search against d's backward search, met once
///               per request
///
/// A backward label is loaded into the store's own search to meet another
/// label. Every leg is bit-identical to DistanceOracle::Cost for the same
/// pair. A candidate's legs live in an (m + 3)^2 table over the slots
/// {o, d, L, s1 ... sm}; a vertex that recurs in them takes its first
/// slot, found by linear scan. The next Prime() replaces the table.
///
/// Not thread-safe; one store per dispatcher, on a CH oracle only.
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

  /// Starts one request's insertion legs: forgets the previous
  /// candidate's legs. The endpoints are searched at the first Prime().
  void Begin(VertexId origin, VertexId destination);
  /// Stores the closure of taxi `taxi`'s insertion walk (its current
  /// location followed by its schedule stops, in schedule order) in place
  /// of the previous candidate's. Flushes the taxi's deposits from the
  /// location and syncs its stop labels with the stops first.
  void Prime(TaxiId taxi, std::span<const VertexId> walk);
  /// Leg cost a -> b: the stored leg of the last Prime(). A pair it did
  /// not store is answered by a point query and counted in
  /// stats().fallback_queries.
  Seconds Cost(VertexId a, VertexId b);

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

  /// Leg table cell value meaning "pair not primed" (costs are >= 0).
  static constexpr Seconds kUnprimed = -1.0;

  /// The first slot holding `v`, or -1.
  int32_t Slot(VertexId v) const;
  /// Stores leg a -> b in the cell of their first slots.
  void Store(VertexId a, VertexId b, Seconds cost);

  std::vector<std::vector<BucketEntry>> buckets_;  // per vertex, unsorted
  std::vector<std::vector<Handle>> handles_;       // per taxi
  std::vector<std::vector<StopLabels>> stops_;     // per taxi
  std::vector<VertexId> anchor_;                   // per taxi
  std::vector<uint8_t> dirty_;                     // per taxi

  // Forward runs deposit anchors and label stops, backward runs label
  // stops and sweep origins; Prime() loads backward stop labels into it.
  UpwardSearch search_;
  // Label() scratch: the kept entries of one run.
  UpwardLabel label_buf_;

  // Per-taxi sweep results, epoch-stamped per Sweep call.
  std::vector<Seconds> swept_dist_;
  std::vector<uint32_t> swept_epoch_;
  uint32_t sweep_epoch_id_ = 0;
  std::vector<TaxiId> found_;

  // The request's endpoints, their four searches and its ride o -> d, met
  // at its first Prime().
  VertexId origin_ = kInvalidVertex;
  VertexId destination_ = kInvalidVertex;
  UpwardSearch origin_out_, origin_in_, dest_out_, dest_in_;
  bool endpoints_searched_ = false;
  Seconds ride_ = kInfiniteCost;

  // The last primed candidate's legs: slots_ is {o, d, L, s1 ... sm} and
  // legs_ the slots_.size()^2 table over it (kUnprimed = absent).
  std::vector<VertexId> slots_;
  std::vector<Seconds> legs_;

  LastStopBucketStats stats_;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_LAST_STOP_BUCKETS_H_
