#ifndef MTSHARE_MATCHING_DISPATCHER_H_
#define MTSHARE_MATCHING_DISPATCHER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "demand/request.h"
#include "matching/phase_timers.h"
#include "matching/taxi_state.h"
#include "partition/landmark_graph.h"
#include "partition/map_partitioning.h"
#include "routing/dijkstra.h"
#include "routing/distance_oracle.h"
#include "routing/last_stop_buckets.h"
#include "sched/route_planner.h"

namespace mtshare {

/// Former candidate-search setting, kept only so existing callers of
/// MatchingConfig::candidate_search still compile. No code reads it: the
/// oracle backend picks how pickup reachability is answered (DESIGN.md
/// §14).
enum class CandidateSearch {
  kIndex = 0,
  kChBuckets,
};

/// Parameters shared by all matching schemes that the paper's evaluation
/// varies (Table II). The values it keeps fixed are constants beside the
/// code that reads them: the partition-filter slack epsilon
/// (PartitionFilter), the taxi-list horizon T_mp (MtShareTaxiIndex), the
/// probabilistic-routing seat fraction (mt_share.cc) and extra slack
/// (RoutePlanner::kProbExtraSlack), and the baselines' grid pitch
/// (Dispatcher::kGridCellM).
struct MatchingConfig {
  /// Candidate searching range gamma (Table II default 2.5 km, swept in
  /// Fig. 15). Eq. (2)'s adaptive gamma is not used (see
  /// MtShareDispatcher::Dispatch).
  double gamma_max_m = 2500.0;
  /// Direction-similarity threshold lambda (0.707 == 45 degrees).
  double lambda = 0.707;
  /// Probabilistic-leg travel budget: min(deadline slack,
  /// shortest * prob_max_stretch + RoutePlanner::kProbExtraSlack) — the
  /// probability vs detour trade-off knob (ablated in
  /// bench_ablation_design).
  double prob_max_stretch = 1.5;
  /// When true (default), candidate search accepts busy taxis from every
  /// mobility cluster whose general vector passes lambda against the
  /// request; when false, only the single best-matching cluster C_a is
  /// used (the paper's literal eq. (3); ablated in the lambda bench).
  bool match_all_compatible_clusters = true;
  /// Not read by any code (see CandidateSearch).
  CandidateSearch candidate_search = CandidateSearch::kIndex;
};

/// Routing counters of one run, filled by the dispatcher and the system
/// (Dispatcher::routing_stats, MTShareSystem::RunScenario), harvested into
/// Metrics and the run report ("routing" section).
struct BatchRoutingStats {
  /// Candidate taxis skipped because the landmark lower bound proved the
  /// pickup unreachable before its deadline.
  int64_t lb_pruned = 0;
  /// Leg costs requested during insertion on the CH that were not primed
  /// (served by a point query; expected 0 — nonzero means the priming
  /// closure in LastStopBuckets::Prime is stale). Always 0 on the exact
  /// table, where every leg is a table read.
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
  /// Point queries the oracle answered on the CH.
  int64_t ch_point_queries = 0;
  /// Insertion candidates primed from labels, one LastStopBuckets::Prime
  /// each (a request's first also runs its four endpoint searches).
  int64_t ch_bucket_queries = 0;
  /// Vertices settled by CH upward searches: the request endpoints'
  /// searches, the stop-label searches and the point queries
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

/// What a matching scheme returns for one ride request.
struct DispatchOutcome {
  bool assigned = false;
  TaxiId taxi = kInvalidTaxi;
  /// Detour cost omega of the winning schedule instance (paper eq. (4)).
  Seconds detour = 0.0;
  /// Candidate taxis whose schedules were examined (paper Table III).
  int32_t candidates = 0;
  /// New schedule + route for the winning taxi; the engine applies them.
  Schedule schedule;
  RoutePlanner::PlannedRoute route;
};

/// Interface of a passenger-taxi matching scheme. One instance owns the
/// indexes for one simulation run; the engine feeds it taxi lifecycle
/// notifications so indexes stay fresh. Schemes differ only in how they
/// find and pick a candidate taxi; every one hands its decision to the
/// engine through Assign.
class Dispatcher {
 public:
  /// The dispatcher reads and never mutates the fleet; the engine applies
  /// outcomes. `landmarks` (which must outlive the dispatcher) arms the
  /// admissible lower-bound prunes for every scheme. On a CH-backed oracle
  /// the dispatcher builds a last-stop bucket store over the oracle's
  /// hierarchy for the whole fleet, which answers pickup reachability and
  /// prices insertion legs from the labels it holds (DESIGN.md §14).
  Dispatcher(const RoadNetwork& network, DistanceOracle* oracle,
             std::vector<TaxiState>* fleet, const MatchingConfig& config,
             const LandmarkGraph& landmarks);
  virtual ~Dispatcher() = default;

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Matches one online ride request; pure decision, no state mutation
  /// beyond the scheme's own index bookkeeping.
  virtual DispatchOutcome Dispatch(const RideRequest& request,
                                   Seconds now) = 0;

  /// Engine notifications, one per taxi event. Each marks the taxi's
  /// last-stop bucket entries dirty (O(1) and idempotent; the next flush
  /// re-deposits only taxis whose anchor moved and labels only new stops,
  /// and the exact table keeps no buckets), then calls the scheme's index
  /// hook below.
  ///
  /// The taxi advanced along its route from position `from_pos` through
  /// `to_pos` (to_pos can trail the taxi's current route_pos when the
  /// engine splits a span around a schedule event).
  void OnTaxiAdvanced(TaxiId taxi, size_t from_pos, size_t to_pos) {
    MarkBucketsDirty(taxi);
    IndexTaxiAdvanced(taxi, from_pos, to_pos);
  }
  /// A taxi's schedule/route was replaced (assignment) or drained (idle).
  /// A drained taxi also drops its stop labels: every stop they label has
  /// been executed.
  void OnScheduleCommitted(TaxiId taxi) {
    MarkBucketsDirty(taxi);
    if (buckets_ != nullptr && (*fleet_)[taxi].schedule.empty()) {
      buckets_->SyncStops(taxi, {});
    }
    IndexScheduleCommitted(taxi);
  }
  /// A request left the system (delivered by `taxi`).
  void OnRequestCompleted(const RideRequest& request, TaxiId taxi) {
    MarkBucketsDirty(taxi);
    IndexRequestCompleted(request, taxi);
  }

  /// Offline-request encounter (paper Sec. IV-C2): `taxi` met the waiting
  /// request at its origin vertex; serve it if a feasible insertion exists.
  /// EvaluateCandidates over this one taxi (ellipse screen, primed legs,
  /// masked DP), then Assign with a shortest-path route.
  DispatchOutcome TryServeEncountered(const RideRequest& request, TaxiId taxi,
                                      Seconds now);

  /// Whether this scheme participates in offline serving (No-Sharing does
  /// not; the adjusted baselines and mT-Share do, Sec. V-A2).
  virtual bool ServesOfflineRequests() const { return true; }

  /// Asked by the engine when a taxi is idle with no route: an
  /// offline-seeking cruise route (mT-Share-pro sends empty taxis toward
  /// high encounter-mass partitions; every other scheme parks them).
  /// Returns an invalid route unless idle cruising was enabled.
  RoutePlanner::PlannedRoute PlanIdleCruise(TaxiId taxi, Seconds now);

  /// Arms probabilistic idle cruising: empty taxis are steered toward
  /// nearby partitions sampled by offline-encounter mass. mT-Share-pro arms
  /// this with its own planner; the Fig. 16 bench arms it on the baselines
  /// to form their "+ probabilistic routing" variants. Both pointers must
  /// outlive the dispatcher.
  void EnableIdleCruising(const MapPartitioning* partitioning,
                          RoutePlanner* planner);

  /// Whether idle cruising is armed. The engine skips the per-boundary
  /// cruise offers entirely when it is not (PlanIdleCruise would be a
  /// side-effect-free early return for every taxi).
  bool IdleCruisingEnabled() const { return cruise_planner_ != nullptr; }

  /// Resident bytes of the scheme's index structures (paper Table IV).
  virtual size_t IndexMemoryBytes() const { return 0; }

  /// Arms (or disarms) per-phase dispatch timing and clears any
  /// accumulated totals. Disabled timing costs one branch per section.
  void EnablePhaseTiming(bool enabled) {
    phase_timers_.Reset();
    phase_timers_.enabled = enabled;
  }
  /// Accumulated per-phase dispatch time (the run-report breakdown).
  const PhaseTimers& phase_timers() const { return phase_timers_; }

  /// The bucket store (null on the exact table) — test/diagnostic access.
  const LastStopBuckets* buckets() const { return buckets_.get(); }

  /// Routing counters for Metrics / the run report. The oracle's
  /// point-query share of ch_upward_settled is added by the system.
  BatchRoutingStats routing_stats() const {
    BatchRoutingStats s;
    s.lb_pruned = lb_pruned_;
    s.reach_probes = reach_probes_;
    if (buckets_ != nullptr) {
      const LastStopBucketStats& b = buckets_->stats();
      // Sweeps, not the store's existence, say whether buckets answered
      // reachability: pGreedyDP's store prices its insertions only.
      s.bucket_search = b.sweeps > 0;
      s.bucket_candidates = b.found;
      s.bucket_maintenance_ms = b.maintenance_ms;
      s.fallback_queries = b.fallback_queries;
      s.ch_bucket_queries = b.primes;
      s.ch_upward_settled = b.endpoint_settled + b.label_settled;
      s.ch_bucket_entries = b.label_entries;
    }
    s.slots_screened = slots_screened_;
    s.ellipse_pruned = ellipse_pruned_;
    s.route_legs_walked = route_legs_walked_;
    s.route_legs_prefixed = route_legs_prefixed_;
    s.route_legs_searched = route_legs_searched_;
    return s;
  }

 protected:
  /// Scheme index hooks behind the engine notifications above. The grid
  /// baselines refresh their last-write-wins position index from the
  /// taxi's current location; mT-Share replays its partition-crossing
  /// reindexes per crossing. Default: no index to refresh.
  virtual void IndexTaxiAdvanced(TaxiId taxi, size_t from_pos,
                                 size_t to_pos) {
    (void)taxi;
    (void)from_pos;
    (void)to_pos;
  }
  virtual void IndexScheduleCommitted(TaxiId taxi) { (void)taxi; }
  virtual void IndexRequestCompleted(const RideRequest& request,
                                     TaxiId taxi) {
    (void)request;
    (void)taxi;
  }

  /// Best feasible insertion over `candidates` for `request` (the
  /// matching hot path, paper Algorithm 1 / Table III; an encounter passes
  /// its one taxi): one PriceCandidate per candidate, each result kept if
  /// its detour is strictly lower than the best so far, so ties go to the
  /// earliest candidate. Candidate lists are emitted in deterministic
  /// order with ascending taxi ids within a bucket, so the tie-break is by
  /// taxi id.
  struct CandidateEval {
    TaxiId taxi = kInvalidTaxi;
    InsertionResult insertion;
  };
  CandidateEval EvaluateCandidates(std::span<const TaxiId> candidates,
                                   const RideRequest& request, Seconds now);
  /// Prices one candidate's insertion of `r`, the step every scheme runs
  /// per candidate: the detour-ellipse screen, then on a CH oracle the
  /// store's Prime of `t`'s walk (its location, then its schedule stops),
  /// then FindBestInsertionDp over the slots the screen kept, reading its
  /// legs from the store on the CH and from the exact table otherwise.
  /// Returns found == false at once when no slot pair survives the
  /// screen. On a CH oracle, call buckets_->Begin for `r` first.
  InsertionResult PriceCandidate(const TaxiState& t, const RideRequest& r,
                                 Seconds now);
  /// True (and counted) when the landmark lower bound proves the taxi
  /// cannot reach the request origin by the pickup deadline. The bound
  /// never exceeds the true cost, so the prune saves work without moving a
  /// decision; kLbSlack absorbs floating-point triangle-inequality
  /// violations so it can never disagree with the exact feasibility
  /// checks.
  bool LowerBoundPrunesPickup(VertexId taxi_location, const RideRequest& r,
                              Seconds now);
  static constexpr Seconds kLbSlack = 1e-6;

  /// Prepares ReachesPickup for `r` (refinement rule 3, DESIGN.md §14).
  /// On a CH-backed oracle: flushes dirty deposits (that is where
  /// maintenance time is paid) and runs one backward sweep from the pickup
  /// over every taxi within pickup_deadline - now. On the exact table a
  /// probe is one row read, so there is nothing to prepare. Call it inside
  /// the kCandidateSearch timer, before the first ReachesPickup of `r`.
  void SweepPickupReach(const RideRequest& r, Seconds now);
  /// Whether taxi `id` reaches `r`'s pickup by its deadline. On a CH this
  /// reads the swept distance, which equals oracle_->Cost(location,
  /// origin) whenever that cost is within the budget; on the exact table
  /// the landmark lower bound settles most violations in O(1) and only
  /// survivors pay the table read. Both accept exactly the same taxis.
  bool ReachesPickup(TaxiId id, const RideRequest& r, Seconds now);
  /// Grid pitch of the baselines' spatial taxi index.
  static constexpr double kGridCellM = 500.0;

  /// Route-then-fill, the one way a scheme hands a decision to the
  /// engine: routes `schedule` from taxi `id`'s location along `route`
  /// when the scheme already planned one (mT-Share-pro's probabilistic
  /// route), else along exact shortest-path legs, and fills `out` with the
  /// assignment. Returns false, leaving `out` unassigned, when no valid
  /// route meets the schedule's deadlines.
  bool Assign(TaxiId id, Schedule schedule, Seconds detour, Seconds now,
              DispatchOutcome* out, RoutePlanner::PlannedRoute route = {});

  const TaxiState& taxi(TaxiId id) const { return (*fleet_)[id]; }

  const RoadNetwork& network_;
  DistanceOracle* oracle_;
  std::vector<TaxiState>* fleet_;
  MatchingConfig config_;
  /// Landmark lower/upper bounds for the pickup prune and the ellipse
  /// screen.
  const LandmarkGraph& landmarks_;
  DijkstraSearch route_dijkstra_;
  int64_t lb_pruned_ = 0;
  int64_t reach_probes_ = 0;
  /// Last-stop bucket store over the oracle's hierarchy, with the labels
  /// and legs of insertion pricing (null on the exact table).
  std::unique_ptr<LastStopBuckets> buckets_;
  /// Detour-ellipse screen counters (run-report routing section).
  int64_t slots_screened_ = 0;
  int64_t ellipse_pruned_ = 0;
  /// Per-phase dispatch time; schemes attribute their sections with
  /// ScopedPhaseTimer.
  PhaseTimers phase_timers_;

 private:
  void MarkBucketsDirty(TaxiId taxi) {
    if (buckets_ != nullptr) buckets_->MarkDirty(taxi);
  }
  /// Detour-ellipse screen (DESIGN.md §14): fills `mask` with the
  /// insertion slots of `t`'s schedule that the landmark lower/upper
  /// bounds cannot prove infeasible for `r`. Returns false when no
  /// (pickup <= dropoff) pair survives — the candidate can be skipped
  /// without exact routing. Only provably infeasible slots are cleared,
  /// so masked insertion search returns the unmasked optimum.
  bool ComputeEllipseMask(const TaxiState& t, const RideRequest& r,
                          Seconds now, InsertionSlotMask* mask);

  /// Materializes an unrestricted shortest-path route for a schedule.
  RoutePlanner::PlannedRoute PlanShortestRoute(VertexId start,
                                               Seconds start_time,
                                               const Schedule& schedule);
  /// FindPath(from, to), walked back through `from`'s resident exact-table
  /// row when there is one (DESIGN.md §5), else searched.
  Path ShortestLeg(VertexId from, VertexId to);

  /// How ShortestLeg built its legs (run-report routing section).
  int64_t route_legs_walked_ = 0;
  int64_t route_legs_prefixed_ = 0;
  int64_t route_legs_searched_ = 0;

  /// PriceCandidate scratch, rewritten for every candidate: the walk it
  /// primes and the ellipse screen's slot mask.
  std::vector<VertexId> walk_buf_;
  InsertionSlotMask mask_;
  /// ComputeEllipseMask scratch: lower-bound arrival chain and suffix-min
  /// deadline gaps of the candidate's base schedule.
  std::vector<Seconds> lba_buf_;
  std::vector<Seconds> gap_suffix_buf_;

  // Idle-cruising state (see EnableIdleCruising).
  const MapPartitioning* cruise_partitioning_ = nullptr;
  RoutePlanner* cruise_planner_ = nullptr;
  std::vector<Seconds> next_cruise_time_;
  Rng cruise_rng_{0xC0FFEE};
};

}  // namespace mtshare

#endif  // MTSHARE_MATCHING_DISPATCHER_H_
