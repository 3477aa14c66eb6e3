#ifndef MTSHARE_ROUTING_ONE_TO_MANY_H_
#define MTSHARE_ROUTING_ONE_TO_MANY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/road_network.h"
#include "routing/distance_oracle.h"
#include "routing/last_stop_buckets.h"
#include "routing/upward_search.h"

namespace mtshare {

/// Counters of the batched insertion-routing layer, harvested into Metrics
/// and the run report ("routing" section).
struct BatchRoutingStats {
  /// Candidate taxis skipped because the landmark lower bound proved the
  /// pickup unreachable before its deadline.
  int64_t lb_pruned = 0;
  /// Leg costs requested during insertion on the CH that were not primed
  /// (served by a per-pair oracle query; expected 0 — nonzero means the
  /// priming coverage analysis in InsertionCostBatch is stale). Always 0
  /// on the exact table, where every leg is a table read.
  int64_t fallback_queries = 0;

  // --- contraction hierarchy (the query counters stay zero unless the CH
  // backend is active; the build counters describe the hierarchy every
  // oracle owns) ---
  /// Whether the oracle ran on the CH backend.
  bool ch_active = false;
  /// Shortcuts the preprocessing added on top of the road network.
  int64_t ch_shortcuts = 0;
  /// Wall-clock milliseconds of CH preprocessing (paid once at system
  /// construction, not per run).
  double ch_preprocessing_ms = 0.0;
  /// Bidirectional point queries answered by CH engines.
  int64_t ch_point_queries = 0;
  /// Insertion Prime() calls answered from labels (each one with work to
  /// do; a request's first also runs its four endpoint searches).
  int64_t ch_bucket_queries = 0;
  /// Vertices settled by CH upward searches: the request endpoints'
  /// searches, the stop-label searches and the oracle's point queries
  /// (not the location deposits or the reachability sweeps, which
  /// LastStopBucketStats counts).
  int64_t ch_upward_settled = 0;
  /// Entries stored in stop labels, after the stall test.
  int64_t ch_bucket_entries = 0;

  // --- pickup reachability (DESIGN.md §14) ---
  /// Pickup-reachability probes answered (Dispatcher::ReachesPickup
  /// calls); always zero for pGreedyDP, whose DP rejects unreachable
  /// pickups itself.
  int64_t reach_probes = 0;
  /// Whether last-stop bucket sweeps answered pickup reachability: true
  /// on a CH-backed oracle once the scheme has swept (never for
  /// pGreedyDP). The two bucket counters below stay zero on the exact
  /// table.
  bool bucket_search = false;
  /// Taxis returned by last-stop bucket sweeps (pre exact-deadline
  /// re-check).
  int64_t bucket_candidates = 0;
  /// Wall-clock milliseconds spent keeping last-stop bucket deposits in
  /// sync with taxi moves (FlushDirty time, paid inside candidate search;
  /// stop labels are synced inside insertion).
  double bucket_maintenance_ms = 0.0;
  /// Insertion slots examined by the detour-ellipse screen.
  int64_t slots_screened = 0;
  /// Insertion slots the screen proved infeasible before exact routing.
  int64_t ellipse_pruned = 0;

  // --- committed shortest-path legs (Dispatcher::PlanShortestRoute) ---
  /// Legs walked back to their source through its resident exact-table
  /// row.
  int64_t route_legs_walked = 0;
  /// Legs whose walk met a tie and searched the prefix up to it.
  int64_t route_legs_prefixed = 0;
  /// Legs searched by Dijkstra because their source had no resident row
  /// (every leg on the CH backend).
  int64_t route_legs_searched = 0;
};

/// Leg costs of a request's insertion into candidate schedules, as
/// FindBestInsertionDp (and its FindBestInsertion fallback) requests them.
///
/// Exact table: nothing to prime. Cost() is DistanceOracle::Cost, one
/// row read per leg, and Begin/AddCandidate/Prime do nothing.
///
/// Contraction hierarchy: Prime() primes every leg the DP can request and
/// calls no oracle. The legs of any insertion walk are pairs over {taxi
/// location L, schedule stops s, request origin o, request destination d}
/// where base-schedule adjacency is preserved (insertion never removes
/// events), so the closure is L -> o, o/d -> every stop, every stop ->
/// o/d, every base-adjacent pair (L -> s1 and s_k -> s_k+1), and o -> d.
/// Each leg is the meet of two upward search spaces (Meet): the request's
/// four endpoint searches, run once per request to exhaustion into dense
/// arrays, and the labels `store` keeps per taxi — its location deposits
/// and its stops' forward and backward labels, synced when the taxi
/// becomes a candidate (AddCandidate):
///
///   L -> o      deposits against o's backward search
///   L -> s1     deposits against s1's backward label
///   s -> o, d   s's forward label against o's, d's backward searches
///   o, d -> s   s's backward label against o's, d's forward searches
///   s -> s'     s's forward label against s''s backward label
///   o -> d      o's forward search against d's backward search
///
/// A backward label is loaded into a dense scratch array to meet another
/// label. Either way every leg is bit-identical to DistanceOracle::Cost
/// for the same pair (InsertionCostBatchTest checks every leg on both
/// backends).
///
/// Usage: Begin(origin, dest, store) once per dispatch; AddCandidate +
/// Prime for each candidate (or all candidates, then one Prime); Cost()
/// afterwards. On the CH, unprimed pairs fall back to the oracle and are
/// counted in stats().fallback_queries.
///
/// The CH's primed legs live in a dense matrix over per-dispatch compact
/// vertex ids (epoch-stamped, so Begin() is O(used cells), not O(|V|)).
/// Dispatches touching more than kDenseCap distinct vertices spill the
/// excess pairs into a hash map instead of growing the matrix
/// quadratically.
class InsertionCostBatch {
 public:
  InsertionCostBatch(const RoadNetwork& network, DistanceOracle* oracle);

  /// Starts a new batch for one ride request; on the CH, clears the
  /// table. `store` holds the taxis' labels: required on a CH oracle, null
  /// on the exact table.
  void Begin(VertexId origin, VertexId destination, LastStopBuckets* store);

  /// Registers taxi `taxi`'s insertion walk: its current location
  /// followed by its schedule stops, in schedule order. On the CH this
  /// flushes the taxi's deposits from the location and syncs its stop
  /// labels with the stops; nothing on the exact table.
  void AddCandidate(TaxiId taxi, std::span<const VertexId> walk);

  /// On the CH, primes the closure of the candidates registered since the
  /// last Prime() from labels, storing only the closure's cells. Nothing
  /// on the exact table.
  void Prime();

  /// Leg cost: a table read on the exact table; on the CH the primed
  /// cell, falling back to the oracle for unknown pairs.
  Seconds Cost(VertexId a, VertexId b) const;

  /// Counters since the last ResetStats (fallbacks are cumulative across
  /// Begin() calls; `lb_pruned` is owned by the dispatcher).
  BatchRoutingStats stats() const;
  void ResetStats();

 private:
  /// Matrix rows/cols beyond this many distinct vertices per dispatch go to
  /// the overflow hash map (the matrix would grow quadratically).
  static constexpr int32_t kDenseCap = 1024;
  /// Matrix cell value meaning "pair not primed" (costs are >= 0).
  static constexpr Seconds kUnprimed = -1.0;

  static uint64_t Key(VertexId a, VertexId b) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  }
  /// Compact id for `v` this dispatch, assigning (and growing the matrix)
  /// on first sight.
  int32_t CidFor(VertexId v);
  void Grow(int32_t needed);
  void Store(VertexId a, VertexId b, Seconds cost);
  /// Whether (a, b) is primed; both must have compact ids.
  bool Primed(VertexId a, VertexId b) const;

  DistanceOracle* oracle_;

  VertexId origin_ = kInvalidVertex;
  VertexId destination_ = kInvalidVertex;

  // Compact-id state: cid_[v] is valid iff cid_epoch_[v] == epoch_.
  std::vector<uint32_t> cid_epoch_;
  std::vector<int32_t> cid_;
  uint32_t epoch_ = 0;
  std::vector<VertexId> cid_vertex_;  // vertex of each compact id
  std::vector<uint8_t> is_stop_;      // per cid: stop legs stored?
  int32_t stride_ = 0;                // matrix is stride_ x stride_
  std::vector<Seconds> matrix_;       // kUnprimed = absent
  std::unordered_map<uint64_t, Seconds> overflow_;  // cids >= kDenseCap

  /// CH: the request endpoints' searches, run at the request's first
  /// Prime() with work: forward and backward from the origin and from the
  /// destination, and a scratch search a backward stop label is loaded
  /// into.
  struct EndpointSearches {
    explicit EndpointSearches(const ContractionHierarchy& ch)
        : origin_out(ch), origin_in(ch), dest_out(ch), dest_in(ch),
          loaded(ch) {}
    UpwardSearch origin_out, origin_in, dest_out, dest_in, loaded;
  };

  // CH: the store (null on the exact table), the candidates registered
  // since the last Prime(), and the endpoint searches (absent on the exact
  // table).
  LastStopBuckets* store_ = nullptr;
  std::vector<TaxiId> pending_taxis_;
  bool endpoints_searched_ = false;
  std::optional<EndpointSearches> endpoints_;

  mutable int64_t fallback_queries_ = 0;
  int64_t label_primes_ = 0;
  int64_t endpoint_settled_ = 0;
};

}  // namespace mtshare

#endif  // MTSHARE_ROUTING_ONE_TO_MANY_H_
